"""FG (Algorithm 2) and WG (Algorithm 3) against the paper's worked examples
and the exact possible-world oracle."""
from collections import defaultdict
from itertools import combinations

import numpy as np
import pytest

from helpers import complete_graph, edges_list, example2_K5, fig1_H, triple_of
from repro.bruteforce import tail_probability
from repro.datasets import analog
from repro.det.adjacency import adj_sets, enumerate_triangles
from repro.det.nucleus import is_k_nucleus, nucleus_numbers
from repro.nucleus import global_, weakly
from repro.nucleus.global_ import (
    g_decomposition,
    g_nuclei,
    grow_candidates,
    maximal,
    mc_triangle_counts,
)
from repro.nucleus.local import (
    NucleusSubgraph,
    connected_subgraphs,
    ell_nuclei,
    local_decomposition,
)
from repro.nucleus.weakly import w_decomposition, w_nuclei
from repro.prob.sampler import world_masks
from test_trace_points import load_tracing


@pytest.fixture(scope="module")
def fig1_decomp(spark):
    return local_decomposition(spark, spark.createDataFrame(fig1_H()), 0.42)


@pytest.fixture(scope="module")
def k5_decomp(spark):
    return local_decomposition(spark, spark.createDataFrame(example2_K5()), 0.01)


@pytest.fixture(scope="module")
def krogan_decomp(spark):
    """krogan sf 0.3 at θ 0.1: k_max 3, and at k = 2 its 182 seed closures
    are only 4 distinct subgraphs."""
    return local_decomposition(spark, analog(spark, "krogan", sf=0.3), 0.1)


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
    """ℓ-(2,0.01)-nucleus but Pr(X_w ≥ 2) = 0.6^10 = 0.00605 < θ: WG empty.
    Only the full K5 world puts a triangle at ν ≥ 2, so the hits over n
    worlds are Binomial(n, 0.00605), and the estimate reaches θ with
    Pr(Bin ≥ 0.01·n): 0.34 at n = 200, 0.19 at n = 500 and 1.9e-6 at
    n = 10,000, the n used here."""
    assert k5_decomp.k_max == 2
    assert w_nuclei(spark, k5_decomp, 2, n=10_000, seed=2) == []


def test_example2_k5_not_global_either(spark, k5_decomp):
    """Pr(X_g ≥ 2) is also 0.6^10 = 0.00605 < θ (only the full K5 is a
    deterministic 2-nucleus), so at n = 10,000 a wrong acceptance needs
    ≥ 100 hits of Binomial(10,000, 0.00605): probability 1.9e-6."""
    assert g_nuclei(spark, k5_decomp, 2, n=10_000, seed=2) == []


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


def test_fg_tests_each_subgraph_once(spark, krogan_decomp):
    """Different clique sets can have one union, so seed closures repeat
    subgraphs: no two candidates, and so no two g-nuclei, share an edge
    set."""
    cands = grow_candidates(krogan_decomp, 2)
    assert cands
    assert len({frozenset(c) for c in cands}) == len(cands)
    g = g_nuclei(spark, krogan_decomp, 2)
    assert g
    assert len({frozenset(h.edges) for h in g}) == len(g)


def recount_closure(seed, four, tri_cliques, k):
    """Algorithm 2's closure as written: each round recount the chosen
    cliques of every triangle, then bring in all cliques of the triangles
    in fewer than k of them."""
    chosen = set(tri_cliques[seed])
    while True:
        counts = defaultdict(int)
        for ci in chosen:
            for t in four[ci]:
                counts[t] += 1
        new = {ci for t, c in counts.items() if c < k for ci in tri_cliques[t]} - chosen
        if not new:
            return chosen
        chosen |= new


@pytest.mark.parametrize("graph", ["fig1", "k5"])
def test_grow_candidates_equal_recount_reference(monkeypatch, graph, fig1_decomp, k5_decomp):
    """Running clique counts grow the same candidates, as the same dicts in
    the same order, as the per-round recount."""
    decomp = {"fig1": fig1_decomp, "k5": k5_decomp}[graph]
    for k in range(1, decomp.k_max + 2):
        got = grow_candidates(decomp, k)
        with monkeypatch.context() as m:
            m.setattr(global_, "_closure", recount_closure)
            want = grow_candidates(decomp, k)
        assert [list(c.items()) for c in got] == [list(c.items()) for c in want]


# --- decomposition over all k ----------------------------------------------


def test_g_decomposition_keys(spark, fig1_decomp):
    out = g_decomposition(spark, fig1_decomp, n=200, seed=3)
    assert set(out) == {1}


def per_nucleus_w(decomp, k, n, seed):
    """Algorithm 3 read one ℓ-nucleus at a time: H's triangles whose
    fraction of worlds reaches θ, labelled within H alone."""
    locals_ = ell_nuclei(decomp, k)
    counts = mc_triangle_counts(None, {i: h.edges for i, h in enumerate(locals_)}, k, n, seed, "w")
    out = []
    for i, h in enumerate(locals_):
        keep = np.zeros(len(decomp.nu), bool)
        for triple, hits in counts[i].items():
            (tid,) = decomp.tids_of([triple])
            keep[tid] = tid in h.tids and hits / n >= decomp.theta
        out += connected_subgraphs(decomp, k, keep)
    return out


@pytest.mark.parametrize("graph", ["fig1", "k5", "krogan"])
def test_w_nuclei_equal_per_nucleus_labelling(spark, graph, fig1_decomp, k5_decomp, krogan_decomp):
    """One labelling per k gives the same w-nuclei, as sets, as labelling
    each ℓ-nucleus on its own."""
    decomp = {"fig1": fig1_decomp, "k5": k5_decomp, "krogan": krogan_decomp}[graph]

    def as_set(hs):
        return {(frozenset(h.edges.items()), frozenset(h.tids)) for h in hs}

    for k in range(1, decomp.k_max + 1):
        got = w_nuclei(spark, decomp, k, n=100, seed=k)
        assert len(got) == len(as_set(got))
        assert as_set(got) == as_set(per_nucleus_w(decomp, k, 100, k))


def test_w_decomposition_keys(spark, k5_decomp):
    """``out[2]`` is empty because Pr(X_w ≥ 2) = 0.6^10 = 0.00605 < θ = 0.01.
    The n-world estimate reaches θ with Pr(Binomial(n, 0.00605) ≥ 0.01·n):
    0.34 at n = 200, 1.9e-6 at the n = 10,000 used here."""
    out = w_decomposition(spark, k5_decomp, n=10_000, seed=3)
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
    """The same worlds as ``mc_triangle_counts``, rows of one
    ``world_masks`` draw per candidate, judged one at a time by
    ``det.nucleus``: per candidate, {sorted vertex triple: count} over all
    its triangles."""
    out = {}
    for cid, edges in candidates.items():
        keys = sorted(edges)
        p = np.array([edges[e] for e in keys])
        got = {tuple(sorted(t)): 0 for t in enumerate_triangles(adj_sets(keys))}
        for row in world_masks(p, n, (seed, cid)):
            world = [e for e, keep in zip(keys, row) if keep]
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
    triangle hanging off it), three K4s whose edges close a triangle
    (0, 1, 4) that spans them, and two K4s sharing one vertex and two
    sharing one edge: at k = 1 their whole worlds fail Definition 3 on
    s-connectivity alone."""
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
    for other in ((3, 4, 5, 6), (0, 1, 4, 5)):
        cands[len(cands)] = dict.fromkeys(sorted(clique_union((0, 1, 2, 3), other)), 0.95)
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


# --- the benchmark's calls (perfbench/workload.py) --------------------------


def test_benchmark_warm_up_call_counts_every_k5_triangle(spark):
    """The warm-up passes candidates as edge dicts: K5 at p = 0.9 as
    candidate 0, k = 1, 8 worlds, seed 0, mode "g"."""
    k5 = {e: 0.9 for e in combinations(range(5), 2)}
    got = mc_triangle_counts(spark, {0: k5}, 1, 8, 0, "g")
    assert list(got) == [0]
    assert sorted(got[0]) == list(combinations(range(5), 3))
    assert all(0 <= c <= 8 for c in got[0].values())


def test_traced_fg_and_wg_record_their_mc_spans(spark, fig1_decomp):
    """The tracer spans FG's and WG's Monte-Carlo calls where the module
    functions look them up, as the benchmark's traced runs do."""
    tracing = load_tracing()
    tracer = tracing.Tracer(spark.sparkContext)
    tracer.install()
    try:
        global_.g_nuclei(spark, fig1_decomp, 1, n=50, seed=0)
        weakly.w_nuclei(spark, fig1_decomp, 1, n=50, seed=0)
    finally:
        tracer.uninstall()
    spans = {s.name: s for s in tracer.spans}
    for name in ("fg.mc", "wg.mc"):
        assert spans[name].attrs["worlds"] > 0, name
