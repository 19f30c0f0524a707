"""FG (Algorithm 2) and WG (Algorithm 3) against the paper's worked examples
and the exact possible-world oracle."""
from itertools import combinations

import numpy as np
import pytest

from helpers import complete_graph, edges_list, example2_K5, fig1_H, triple_of
from repro.bruteforce import tail_probability
from repro.det.adjacency import adj_sets, enumerate_triangles
from repro.det.nucleus import is_k_nucleus, nucleus_numbers
from repro.nucleus import global_
from repro.nucleus.global_ import (
    g_decomposition,
    g_nuclei,
    grow_candidates,
    maximal,
    mc_triangle_counts,
)
from repro.nucleus.local import NucleusSubgraph, local_decomposition
from repro.nucleus.weakly import w_decomposition, w_nuclei
from repro.prob.sampler import world_mask


@pytest.fixture(scope="module")
def fig1_decomp(spark):
    return local_decomposition(spark, spark.createDataFrame(fig1_H()), 0.42)


@pytest.fixture(scope="module")
def k5_decomp(spark):
    return local_decomposition(spark, spark.createDataFrame(example2_K5()), 0.01)


# --- paper Example 1 / Figure 2 ---------------------------------------------


def test_fig1_g_nuclei_are_the_two_k4s(spark, fig1_decomp):
    g = g_nuclei(spark, fig1_decomp, 1, n=400, seed=1)
    got = sorted(tuple(sorted(x.vertices)) for x in g)
    assert got == [(1, 2, 3, 4), (1, 2, 3, 5)]


def test_fig1_H_itself_not_g_nucleus(spark):
    """Pr(X_{H,(1,3,5),g} ≥ 1) = 0.3 < 0.42 — H fails the global test."""
    assert tail_probability(edges_list(fig1_H()), (1, 3, 5), 1, "g") == pytest.approx(0.3)


def test_fig1_g_nuclei_satisfy_exact_definition(spark, fig1_decomp):
    triple = triple_of(fig1_decomp)
    for h in g_nuclei(spark, fig1_decomp, 1, n=400, seed=1):
        e = [(u, v, p) for (u, v), p in h.edges.items()]
        for tid in h.tids:
            assert tail_probability(e, triple[tid], 1, "g") >= 0.42


def test_fig1_g_nucleus_probability_values():
    """Figure 2a/2b: the only det-1-nucleus world is the full K4:
    probabilities 0.5 and 0.6 respectively."""
    h5 = [(1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0), (1, 5, 1.0), (2, 5, 1.0), (3, 5, 0.5)]
    h4 = [(1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0), (1, 4, 1.0), (2, 4, 1.0), (3, 4, 0.6)]
    assert tail_probability(h5, (1, 2, 3), 1, "g") == pytest.approx(0.5)
    assert tail_probability(h4, (1, 2, 3), 1, "g") == pytest.approx(0.6)


def test_fig1_w_nucleus_coincides_with_local(spark, fig1_decomp):
    w = w_nuclei(spark, fig1_decomp, 1, n=400, seed=1)
    assert len(w) == 1
    assert w[0].vertices == {1, 2, 3, 4, 5}
    assert len(w[0].edges) == 9


# --- paper Example 2 --------------------------------------------------------


def test_example2_k5_not_weakly_global(spark, k5_decomp):
    """ℓ-(2,0.01)-nucleus but Pr(X_w ≥ 2) = 0.6^10 = 0.006 < θ: WG empty."""
    assert k5_decomp.k_max == 2
    assert w_nuclei(spark, k5_decomp, 2, n=500, seed=2) == []


def test_example2_k5_not_global_either(spark, k5_decomp):
    assert g_nuclei(spark, k5_decomp, 2, n=500, seed=2) == []


# --- candidate growth -------------------------------------------------------


def test_grow_candidates_fig1(fig1_decomp):
    """Each seed triangle's closure inside C_1: the two K4s and their union
    (seeds in the shared triangle pull in both cliques)."""
    cands = grow_candidates(fig1_decomp, 1)
    sizes = sorted(len(c) for c in cands)
    assert sizes and all(s in (6, 9) for s in sizes)


def test_grow_candidates_order_unchanged_by_increasing_relabelling(spark, fig1_decomp):
    """The candidate order is the FG Monte-Carlo stream key. Seeds are
    visited in tid (row) order, which an increasing relabelling keeps, also
    one that turns the one-digit ids 1..5 into 6..10."""
    pdf = fig1_H().pipe(lambda d: d.assign(u=d.u + 5, v=d.v + 5))
    shifted = local_decomposition(spark, spark.createDataFrame(pdf), 0.42)
    got = [{(u - 5, v - 5): p for (u, v), p in c.items()} for c in grow_candidates(shifted, 1)]
    want = grow_candidates(fig1_decomp, 1)
    assert len(want) == 3
    assert got == want


def test_grow_candidates_k_too_high(fig1_decomp):
    assert grow_candidates(fig1_decomp, 99) == []


# --- decomposition over all k ----------------------------------------------


def test_g_decomposition_keys(spark, fig1_decomp):
    out = g_decomposition(spark, fig1_decomp, n=200, seed=3)
    assert set(out) == {1}


def test_w_decomposition_keys(spark, k5_decomp):
    out = w_decomposition(spark, k5_decomp, n=200, seed=3)
    assert set(out) == {1, 2}
    assert out[1]  # K5 worlds routinely contain 1-nuclei
    assert out[2] == []


# --- Monte-Carlo estimator accuracy (Hoeffding) ------------------------------


def test_mc_estimate_close_to_exact(spark):
    """K5(0.6): exact Pr(X_w ≥ 1 | △) compared against the sampled estimate
    within the Hoeffding ε for n = 2000."""
    edges = {(u, v): 0.6 for u, v, _ in edges_list(complete_graph(5, 0.6))}
    n = 2000
    counts = mc_triangle_counts(spark, {0: edges}, 1, n, seed=11, mode="w")
    est = counts[0].get((0, 1, 2), 0) / n
    exact = tail_probability(edges_list(complete_graph(5, 0.6)), (0, 1, 2), 1, "w")
    assert abs(est - exact) < 0.05


def test_mc_counts_deterministic_in_seed(spark):
    edges = {(u, v): 0.7 for u, v, _ in edges_list(complete_graph(4, 0.7))}
    a = mc_triangle_counts(spark, {0: edges}, 1, 100, seed=5, mode="g")
    b = mc_triangle_counts(spark, {0: edges}, 1, 100, seed=5, mode="g")
    assert a == b


def test_mc_counts_empty_candidates(spark):
    assert mc_triangle_counts(spark, {}, 1, 10, seed=0, mode="g") == {}


def test_mc_counts_bad_mode(spark):
    edges = {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0}
    with pytest.raises(Exception):
        mc_triangle_counts(spark, {0: edges}, 1, 4, seed=0, mode="zz")


# --- containment hierarchy (paper §3 remark) --------------------------------


def test_g_contained_in_w_contained_in_l(spark, fig1_decomp):
    """Every g-nucleus ⊆ some w-nucleus ⊆ some ℓ-nucleus."""
    from repro.nucleus.local import ell_nuclei

    g = g_nuclei(spark, fig1_decomp, 1, n=400, seed=1)
    w = w_nuclei(spark, fig1_decomp, 1, n=400, seed=1)
    l = ell_nuclei(fig1_decomp, 1)
    for hg in g:
        assert any(hg.edges.keys() <= hw.edges.keys() for hw in w)
    for hw in w:
        assert any(hw.edges.keys() <= hl.edges.keys() for hl in l)


# --- vectorised Monte-Carlo kernel vs the scalar per-world reference --------


def scalar_counts(candidates, k, n, seed, mode):
    """The same worlds as ``mc_triangle_counts``, judged one at a time by
    ``det.nucleus``: per candidate, {sorted vertex triple: count} over all
    its triangles."""
    out = {}
    for cid, edges in candidates.items():
        keys = sorted(edges)
        p = np.array([edges[e] for e in keys])
        got = {tuple(sorted(t)): 0 for t in enumerate_triangles(adj_sets(keys))}
        for s in range(n):
            world = [e for e, keep in zip(keys, world_mask(p, (seed, cid, s))) if keep]
            if mode == "g":
                hits = enumerate_triangles(adj_sets(world)) if is_k_nucleus(world, k) else []
            else:
                hits = [t for t, v in nucleus_numbers(world).items() if v >= k]
            for t in hits:
                got[tuple(sorted(t))] += 1
        out[cid] = got
    return out


def clique_union(*cliques) -> set:
    return {e for cl in cliques for e in combinations(sorted(cl), 2)}


def mc_inputs(seed: int) -> dict[int, dict]:
    """Candidate edge dicts: random unions of 4-cliques on ≤ 12 vertices,
    K5, Figure 1's H, a K4 with edges in no 4-clique (a pendant edge and a
    triangle hanging off it), and three K4s whose edges close a triangle
    (0, 1, 4) that spans them."""
    rng = np.random.default_rng(seed)

    def probs(edges):
        return {e: 1.0 if rng.random() < 0.3 else 0.3 + 0.7 * rng.random() for e in sorted(edges)}

    shapes = [
        clique_union(
            *(rng.choice(12, size=4, replace=False).tolist() for _ in range(rng.integers(2, 7)))
        )
        for _ in range(4)
    ]
    shapes += [
        clique_union(range(5)),
        clique_union((0, 1, 2, 3), (0, 1, 4, 5)) | {(2, 4)},
        clique_union((0, 1, 2, 3)) | {(3, 4), (2, 4), (0, 5)},
        clique_union((0, 1, 2, 3), (0, 4, 5, 6), (1, 4, 7, 8)),
    ]
    cands = {i: probs(e) for i, e in enumerate(shapes)}
    cands[len(cands)] = {(u, v): p for u, v, p in edges_list(fig1_H())}
    return cands


@pytest.mark.parametrize("block_elems", [None, 1000], ids=["one-block", "many-blocks"])
@pytest.mark.parametrize("mode", ["g", "w"])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mc_counts_equal_scalar_reference(spark, monkeypatch, mode, k, seed, block_elems):
    """``many-blocks`` shrinks the block budget so every candidate's 60
    worlds are split over several blocks."""
    if block_elems is not None:
        monkeypatch.setattr(global_, "_BLOCK_ELEMS", block_elems)
    cands = mc_inputs(seed)
    assert mc_triangle_counts(spark, cands, k, 60, seed, mode) == scalar_counts(
        cands, k, 60, seed, mode
    )


def test_maximal_keeps_only_strict_supersets():
    """Nested A ⊂ B ⊂ C keeps only C; two distinct candidates of equal size
    are both kept, in input order."""

    def sub(edges):
        return NucleusSubgraph(1, set(), {e: 1.0 for e in edges}, set())

    a, b, c = sub([(0, 1)]), sub([(0, 1), (1, 2)]), sub([(0, 1), (1, 2), (2, 3)])
    d, e = sub([(5, 6), (6, 7)]), sub([(5, 6), (5, 7)])
    assert maximal([a, d, b, c, e]) == [d, c, e]


def test_fg_and_wg_submit_no_spark_job(spark, fig1_decomp, k5_decomp):
    sc = spark.sparkContext
    sc.setJobGroup("mc-driver-only", "FG and WG")
    try:
        g_nuclei(spark, fig1_decomp, 1, n=50, seed=0)
        w_nuclei(spark, fig1_decomp, 1, n=50, seed=0)
        g_decomposition(spark, k5_decomp, n=50, seed=0)
        w_decomposition(spark, k5_decomp, n=50, seed=0)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert sc.statusTracker().getJobIdsForGroup("mc-driver-only") == []
