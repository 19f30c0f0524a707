"""Deterministic k-core / k-truss / (3,4)-nucleus substrate, incl. Lemma 3."""
from itertools import combinations

import pytest

from helpers import complete_graph
from repro.det.adjacency import adj_sets, enumerate_4cliques, enumerate_triangles
from repro.det.core import core_numbers
from repro.det.nucleus import is_k_nucleus, nucleus_numbers
from repro.det.truss import truss_numbers


def kn(n):
    return [(u, v) for u, v in combinations(range(n), 2)]


def path(n):
    return [(i, i + 1) for i in range(n - 1)]


# --- enumeration ------------------------------------------------------------


@pytest.mark.parametrize("n,tris,cliques", [(3, 1, 0), (4, 4, 1), (5, 10, 5), (6, 20, 15)])
def test_complete_graph_counts(n, tris, cliques):
    adj = adj_sets(kn(n))
    assert len(enumerate_triangles(adj)) == tris
    assert len(enumerate_4cliques(adj)) == cliques


def test_no_triangles_in_bipartite():
    k33 = [(u, v) for u in range(3) for v in range(3, 6)]
    assert enumerate_triangles(adj_sets(k33)) == []


def test_triangles_sorted_and_unique():
    tris = enumerate_triangles(adj_sets(kn(5)))
    assert all(a < b < c for a, b, c in tris)
    assert len(set(tris)) == len(tris)


# --- k-core -----------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4, 5, 7])
def test_core_complete(n):
    assert set(core_numbers(kn(n)).values()) == {n - 1}


def test_core_path():
    assert set(core_numbers(path(6)).values()) == {1}


def test_core_k4_with_tail():
    edges = kn(4) + [(3, 4), (4, 5)]
    core = core_numbers(edges)
    assert core[0] == core[1] == core[2] == core[3] == 3
    assert core[4] == core[5] == 1


# --- k-truss ----------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_truss_complete(n):
    # every edge of K_n is in n−2 triangles and that survives peeling
    assert set(truss_numbers(kn(n)).values()) == {n - 2}


def test_truss_triangle_with_pendant():
    t = truss_numbers(kn(3) + [(2, 3)])
    assert t[(0, 1)] == t[(0, 2)] == t[(1, 2)] == 1
    assert t[(2, 3)] == 0


# --- (3,4)-nucleus ----------------------------------------------------------


@pytest.mark.parametrize("n,nu", [(4, 1), (5, 2), (6, 3), (7, 4)])
def test_nucleus_complete(n, nu):
    # K_n: every triangle is in n−3 4-cliques (Lemma 3 boundary case)
    vals = set(nucleus_numbers(kn(n)).values())
    assert vals == {nu}


def test_nucleus_two_disjoint_k4():
    edges = kn(4) + [(u + 10, v + 10) for u, v in kn(4)]
    assert set(nucleus_numbers(edges).values()) == {1}


def test_nucleus_triangle_without_clique_is_zero():
    assert nucleus_numbers(kn(3)) == {(0, 1, 2): 0}


def test_is_k_nucleus_k4():
    assert is_k_nucleus(kn(4), 1)
    assert not is_k_nucleus(kn(4), 2)


def test_is_k_nucleus_requires_union_of_cliques():
    # K4 plus a pendant edge: the pendant edge is in no 4-clique
    assert not is_k_nucleus(kn(4) + [(3, 4)], 1)


def test_is_k_nucleus_requires_connectivity():
    two = kn(4) + [(u + 10, v + 10) for u, v in kn(4)]
    assert not is_k_nucleus(two, 1)  # two components


def test_is_k_nucleus_empty():
    assert not is_k_nucleus([], 0)


def test_is_k_nucleus_rejects_triangle_in_no_clique():
    """A union of 4-cliques whose edges close triangle (1,5,6), which lies
    in no 4-clique: its support is 0 < k, so G is no 1-nucleus."""
    edges = [
        (0, 1), (0, 5), (0, 7), (0, 8), (0, 9), (0, 10), (1, 3), (1, 4), (1, 5), (1, 6),
        (1, 8), (1, 9), (1, 10), (2, 3), (2, 5), (2, 6), (2, 7), (2, 9), (2, 10), (3, 4),
        (3, 7), (3, 8), (3, 9), (3, 10), (4, 6), (4, 8), (4, 9), (4, 10), (5, 6), (5, 7),
        (5, 8), (6, 7), (6, 10), (7, 8), (7, 9), (7, 10), (8, 9), (9, 10),
    ]
    assert nucleus_numbers(edges)[(1, 5, 6)] == 0
    assert not is_k_nucleus(edges, 1)


def test_nucleus_k4_with_pendant_edge():
    """ν ≥ k ⟺ the triangle lies in a k-nucleus (the 1_w indicator)."""
    nu = nucleus_numbers(kn(4) + [(3, 4)])
    assert nu[(0, 1, 2)] >= 1
    assert not nu[(0, 1, 2)] >= 2


# --- Lemma 3: the only k-nucleus on k+3 vertices is the (k+3)-clique --------


def _all_graphs(n):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield [pairs[i] for i in range(len(pairs)) if mask >> i & 1]


@pytest.mark.parametrize("k", [1, 2])
def test_lemma3_exhaustive(k):
    n = k + 3
    full = set(combinations(range(n), 2))
    hits = [set(g) for g in _all_graphs(n) if is_k_nucleus(g, k)]
    assert hits == [full]


# --- special-case coherence: nucleus generalizes core and truss -------------


@pytest.mark.parametrize("n", [5, 6])
def test_hierarchy_on_complete_graphs(n):
    """K_n: core = n−1, truss = n−2, nucleus = n−3 — the (r,s) ladder."""
    assert set(core_numbers(kn(n)).values()) == {n - 1}
    assert set(truss_numbers(kn(n)).values()) == {n - 2}
    assert set(nucleus_numbers(kn(n)).values()) == {n - 3}
