"""Self-checks for the brute-force oracle and small pure-python units."""
from itertools import combinations

import numpy as np
import pandas as pd
import pytest

from helpers import complete_graph, edges_list
from repro.bruteforce import is_k_nucleus_def3, local_nu_reference, tail_probability
from repro.det.adjacency import adj_sets, canon, clique_triangles
from repro.det.nucleus import is_k_nucleus
from repro.experiments import _nu_errors
from repro.nucleus.local import NucleusSubgraph
from repro.prob.support import pb_tail


# --- tail_probability sanity ------------------------------------------------


def test_modes_are_ordered():
    """g ≤ w ≤ l pointwise (a world that is a k-nucleus contains one; a
    contained k-nucleus gives the triangle support ≥ k)."""
    edges = edges_list(complete_graph(5, 0.7))
    tri = (0, 1, 2)
    for k in (0, 1, 2):
        g = tail_probability(edges, tri, k, "g")
        w = tail_probability(edges, tri, k, "w")
        l = tail_probability(edges, tri, k, "l")
        assert g <= w + 1e-12 <= l + 1e-12


def test_tail_zero_k_is_triangle_probability():
    edges = edges_list(complete_graph(4, 0.5))
    assert tail_probability(edges, (0, 1, 2), 0, "l") == pytest.approx(0.5**3)


def test_tail_decreases_in_k():
    edges = edges_list(complete_graph(5, 0.8))
    vals = [tail_probability(edges, (0, 1, 2), k, "l") for k in range(3)]
    assert vals[0] >= vals[1] >= vals[2]


def test_tail_matches_dp_on_independent_extensions():
    """Book graph: triangle + 3 satellites — DP and world-enumeration agree."""
    tri = [(0, 1, 0.9), (0, 2, 0.8), (1, 2, 0.7)]
    sats = []
    for i, z in enumerate((3, 4, 5)):
        sats += [(0, z, 0.5 + 0.1 * i), (1, z, 0.6), (2, z, 0.4)]
    edges = tri + sats
    qs = np.array([(0.5 + 0.1 * i) * 0.6 * 0.4 for i in range(3)])
    p_tri = 0.9 * 0.8 * 0.7
    tail = pb_tail(qs)
    for k in range(4):
        assert tail_probability(edges, (0, 1, 2), k, "l") == pytest.approx(
            p_tri * tail[k], abs=1e-9
        )


def test_tail_probability_rejects_large_graphs():
    edges = [(i, i + 1, 0.5) for i in range(30)]
    with pytest.raises(ValueError):
        tail_probability(edges, (0, 1, 2), 1, "l")


def test_tail_probability_bad_mode():
    tri = [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]
    with pytest.raises(ValueError):
        tail_probability(tri, (0, 1, 2), 1, "x")


def test_missing_triangle_has_zero_tail():
    edges = [(0, 1, 0.9), (1, 2, 0.9)]  # no (0,2) edge
    assert tail_probability(edges, (0, 1, 2), 0, "l") == 0.0


# --- local_nu_reference sanity ---------------------------------------------


@pytest.mark.parametrize("n,expected", [(4, 1), (5, 2), (6, 3)])
def test_reference_complete_graphs_prob_one(n, expected):
    nu = local_nu_reference(edges_list(complete_graph(n, 1.0)), 1.0)
    assert set(nu.values()) == {expected}


def test_reference_theta_filter():
    nu = local_nu_reference(edges_list(complete_graph(4, 0.2)), 0.5)
    assert set(nu.values()) == {-1}


def test_reference_triangle_no_clique():
    nu = local_nu_reference(edges_list(complete_graph(3, 0.9)), 0.1)
    assert nu == {(0, 1, 2): 0}


# --- misc units -------------------------------------------------------------


def test_canon_orders():
    assert canon(5, 2) == (2, 5) and canon(2, 5) == (2, 5)


# --- g-indicator: det.nucleus.is_k_nucleus vs Definition 3 -----------------


@pytest.mark.parametrize("seed", range(4))
def test_is_k_nucleus_matches_definition3_on_clique_unions(seed):
    """Random unions of ten 4-cliques on 11 vertices, judged the same by
    both implementations. Such unions are dense enough that their edges
    sometimes close a triangle lying in no 4-clique (seeds 0 and 1 draw
    some), which Definition 3 rejects."""
    rng = np.random.default_rng(seed)
    for _ in range(50):
        edges = {
            e
            for _ in range(10)
            for e in combinations(sorted(rng.choice(11, size=4, replace=False).tolist()), 2)
        }
        for k in range(4):
            assert is_k_nucleus(edges, k) == is_k_nucleus_def3(edges, k), (sorted(edges), k)


def test_clique_triangles_count():
    assert len(clique_triangles((1, 2, 3, 4))) == 4
    assert all(len(t) == 3 for t in clique_triangles((1, 2, 3, 4)))


def test_adj_sets_symmetric():
    adj = adj_sets([(1, 2), (2, 3)])
    assert adj[2] == {1, 3} and adj[1] == {2}


def test_nu_errors_metrics():
    avg, pct = _nu_errors(np.array([2, 3, 1]), np.array([2, 1, 1]))
    assert avg == pytest.approx(2 / 3)
    assert pct == pytest.approx(100 / 3)
    assert _nu_errors(np.array([], int), np.array([], int)) == (0.0, 0.0)


def test_nu_errors_by_tid_with_filtered_triangles():
    """θ-filtered triangles (ν = −1 under both scorers) count as equal; AP
    above and below DP both count: |diffs| = 0, 1, 0, 2, 0, 3."""
    dp = np.array([-1, 0, 2, 3, 1, 4])
    ap = np.array([-1, 1, 2, 1, 1, 1])
    avg, pct = _nu_errors(dp, ap)
    assert avg == pytest.approx(6 / 6)
    assert pct == pytest.approx(50.0)


def test_nucleus_subgraph_edge_pdf():
    h = NucleusSubgraph(2, {1, 2, 3}, {(1, 2): 0.5, (2, 3): 0.7}, {"1-2-3"})
    pdf = h.edge_pdf
    assert list(pdf.columns) == ["u", "v", "p"]
    assert len(pdf) == 2 and pdf.p.tolist() == [0.5, 0.7]


def test_complete_graph_helper():
    g = complete_graph(5, 0.3)
    assert len(g) == 10 and (g.p == 0.3).all()
    assert (g.u < g.v).all()
