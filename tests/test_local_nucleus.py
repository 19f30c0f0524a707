"""ℓ-NuDecomp (Algorithm 1) against the definitional brute-force oracle,
paper worked examples, s-connectivity of the extracted nuclei, and
structural invariants."""
import numpy as np
import pandas as pd
import pytest

from helpers import (
    complete_graph,
    edges_list,
    example2_K5,
    fig1_H,
    nu_by_triple,
    random_prob_graph,
    triple_of,
)
from repro.bruteforce import local_nu_reference, tail_probability
from repro.det.nucleus import nucleus_numbers
from repro.nucleus.local import ell_nuclei, local_decomposition


# --- agreement with the sequential exact reference --------------------------


@pytest.mark.parametrize("seed", range(6))
def test_matches_reference_random_graphs(spark, seed):
    pdf = random_prob_graph(9, 0.65, seed=seed)
    d = local_decomposition(spark, spark.createDataFrame(pdf), 0.2)
    assert nu_by_triple(d) == local_nu_reference(edges_list(pdf), 0.2)


@pytest.mark.parametrize("theta", [0.05, 0.3, 0.7])
def test_matches_reference_thetas(spark, theta):
    pdf = random_prob_graph(8, 0.8, seed=42)
    d = local_decomposition(spark, spark.createDataFrame(pdf), theta)
    assert nu_by_triple(d) == local_nu_reference(edges_list(pdf), theta)


# --- paper worked examples --------------------------------------------------


def test_figure1_H_is_l_1_042_nucleus(spark):
    """Figure 1b: every triangle of H is in one 4-clique w.p. ≥ 0.42."""
    d = local_decomposition(spark, spark.createDataFrame(fig1_H()), 0.42)
    assert set(d.nu.tolist()) == {1}
    nuclei = ell_nuclei(d, 1)
    assert len(nuclei) == 1
    assert nuclei[0].vertices == {1, 2, 3, 4, 5}
    assert len(nuclei[0].edges) == 9


def test_figure1_tail_for_triangle_135(spark):
    """Pr(X_{H,(1,3,5),ℓ} ≥ 1) = 0.5 exactly (the 0.5-edge clique)."""
    t = tail_probability(edges_list(fig1_H()), (1, 3, 5), 1, "l")
    assert t == pytest.approx(0.5)


def test_figure1_higher_theta_kills_H(spark):
    d = local_decomposition(spark, spark.createDataFrame(fig1_H()), 0.7)
    # only the 0.6-clique side survives at θ=0.55? At θ=0.7 neither 4-clique
    # reaches 0.7, so no triangle keeps support k≥1.
    assert all(v <= 0 for v in d.nu.tolist())


def test_example2_K5_is_l_2_001_nucleus(spark):
    d = local_decomposition(spark, spark.createDataFrame(example2_K5()), 0.01)
    assert set(d.nu.tolist()) == {2}  # each triangle in both 4-cliques w.p. .6^9


def test_example2_tail_values():
    e = edges_list(example2_K5())
    assert tail_probability(e, (0, 1, 2), 2, "l") == pytest.approx(0.6**9)
    assert tail_probability(e, (0, 1, 2), 2, "w") == pytest.approx(0.6**10)


# --- s-connectivity of extracted nuclei -------------------------------------


@pytest.mark.parametrize("blocks", [1, 2, 3])
def test_disjoint_blocks_are_separate_nuclei(spark, blocks):
    """N disjoint high-probability K5 blocks give N ℓ-nuclei, one per block."""
    pdf = pd.concat(
        [
            complete_graph(5, 0.9).assign(u=lambda d: d.u + 10 * i, v=lambda d: d.v + 10 * i)
            for i in range(blocks)
        ],
        ignore_index=True,
    )
    d = local_decomposition(spark, spark.createDataFrame(pdf), 0.1)
    nuclei = ell_nuclei(d, 1)
    assert sorted(sorted(h.vertices) for h in nuclei) == [
        list(range(10 * i, 10 * i + 5)) for i in range(blocks)
    ]
    assert all(len(h.tids) == 10 and len(h.edges) == 10 for h in nuclei)


def test_k4s_sharing_a_triangle_are_one_nucleus(spark):
    """Two K4s sharing triangle (0,1,2) are s-connected: one ℓ-nucleus."""
    pdf = complete_graph(5, 1.0)
    pdf = pdf[~((pdf.u == 3) & (pdf.v == 4))]  # K5 minus edge (3,4)
    d = local_decomposition(spark, spark.createDataFrame(pdf), 0.5)
    nuclei = ell_nuclei(d, 1)
    assert len(nuclei) == 1
    assert nuclei[0].vertices == {0, 1, 2, 3, 4}
    assert len(nuclei[0].edges) == 9 and len(nuclei[0].tids) == 7


# --- structural invariants --------------------------------------------------


def test_deterministic_limit_matches_det_nucleus(spark):
    """All probabilities 1, θ = 1: ν equals the deterministic decomposition."""
    pdf = random_prob_graph(10, 0.6, seed=7).assign(p=1.0)
    d = local_decomposition(spark, spark.createDataFrame(pdf), 1.0)
    det = nucleus_numbers([(u, v) for u, v, _ in edges_list(pdf)])
    got = nu_by_triple(d)
    # det assigns 0 to clique-less triangles; probabilistic ν does the same
    assert got == det


def test_theta_monotonicity(spark):
    pdf = random_prob_graph(9, 0.7, seed=11)
    lo = nu_by_triple(local_decomposition(spark, spark.createDataFrame(pdf), 0.1))
    hi = nu_by_triple(local_decomposition(spark, spark.createDataFrame(pdf), 0.5))
    for t in lo:
        assert hi[t] <= lo[t]


def test_low_probability_triangles_get_minus_one(spark):
    pdf = complete_graph(4, 0.2)  # p_tri = 0.008 < θ
    d = local_decomposition(spark, spark.createDataFrame(pdf), 0.5)
    assert set(d.nu.tolist()) == {-1}
    assert ell_nuclei(d, 0) == []


def test_extracted_nuclei_satisfy_definition(spark):
    """Definition 5 on the extracted subgraph H: every triangle of H has
    Pr(X_{H,△,ℓ} ≥ k) ≥ θ — verified by exact world enumeration over H."""
    pdf = complete_graph(6, 0.8)
    theta = 0.15
    d = local_decomposition(spark, spark.createDataFrame(pdf), theta)
    k = d.k_max
    assert k >= 1
    triple = triple_of(d)
    for h in ell_nuclei(d, k):
        e = [(u, v, p) for (u, v), p in h.edges.items()]
        if len(e) > 18:
            pytest.skip("extracted nucleus too large for exact enumeration")
        for tid in h.tids:
            assert tail_probability(e, triple[tid], k, "l") >= theta - 1e-9


def test_ap_scorer_end_to_end_close_to_dp(spark):
    pdf = random_prob_graph(12, 0.7, seed=21)
    dp = local_decomposition(spark, spark.createDataFrame(pdf), 0.2, scorer="dp")
    ap = local_decomposition(spark, spark.createDataFrame(pdf), 0.2, scorer="ap")
    dp, ap = nu_by_triple(dp), nu_by_triple(ap)
    diffs = [abs(dp[t] - ap[t]) for t in dp]
    assert np.mean(diffs) <= 0.5
    assert dp.keys() == ap.keys()


def test_methods_counter_populated_ap(spark):
    pdf = random_prob_graph(12, 0.7, seed=22)
    ap = local_decomposition(spark, spark.createDataFrame(pdf), 0.2, scorer="ap")
    assert sum(ap.methods.values()) > 0


def test_precomputed_structures_equivalent(spark):
    from repro.nucleus.local import collect_structures

    pdf = random_prob_graph(9, 0.7, seed=31)
    e = spark.createDataFrame(pdf)
    s = collect_structures(spark, e)
    d1 = local_decomposition(spark, e, 0.2)
    d2 = local_decomposition(spark, e, 0.2, structures=s)
    assert np.array_equal(d1.nu, d2.nu)


def test_unknown_scorer_raises(spark):
    with pytest.raises(ValueError):
        local_decomposition(spark, spark.createDataFrame(fig1_H()), 0.2, scorer="xx")


def test_empty_graph(spark):
    pdf = pd.DataFrame({"u": [0], "v": [1], "p": [0.5]})
    d = local_decomposition(spark, spark.createDataFrame(pdf), 0.2)
    assert len(d.nu) == 0 and d.k_max == -1


def test_nuclei_levels_nested(spark):
    """ℓ-(k+1,θ)-nuclei vertices are contained in some ℓ-(k,θ)-nucleus."""
    pdf = random_prob_graph(10, 0.8, seed=17)
    d = local_decomposition(spark, spark.createDataFrame(pdf), 0.1)
    for k in range(1, d.k_max):
        lower = ell_nuclei(d, k)
        for hi in ell_nuclei(d, k + 1):
            assert any(hi.tids <= lo.tids for lo in lower)
