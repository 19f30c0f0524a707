"""Batched scoring: the DP and AP kernels on ragged, zero-padded batches
against independent tails, pinned ν digests of the batched peel, and the
peel's round and rescore counters."""
import hashlib
import math
from collections import Counter

import numpy as np
import pytest

from helpers import batch_of, complete_graph
from repro.datasets import analog
from repro.nucleus.local import collect_structures, local_decomposition
from repro.prob.approx import A, B, C, D, METHODS, _moments, kappa_ap
from repro.prob.support import EPS, kappa_dp, pb_tail

#: row lengths around the width buckets (8, 64) and the AP thresholds (200)
CS = (0, 1, 7, 8, 9, 63, 64, 65, 199, 200, 300)
THETAS = (EPS / 2, 0.1, 0.9)


def ragged_rows(seed: int):
    """For every c: all-zero, all-one, 0/1-mixed, small and uniform rows,
    plus one p per row (some exactly 1)."""
    rng = np.random.default_rng(seed)
    rows = []
    for c in CS:
        rows += [
            np.zeros(c),
            np.ones(c),
            rng.integers(0, 2, c).astype(float),
            rng.uniform(0.0, 0.1, c),
            rng.uniform(0.0, 1.0, c),
            rng.uniform(0.28, 0.32, c),
        ]
    order = rng.permutation(len(rows))
    rows = [rows[i] for i in order]
    p = rng.uniform(0.05, 1.0, len(rows))
    p[::5] = 1.0
    return rows, p


def convolve_tail(qs) -> np.ndarray:
    """Pr[ζ ≥ k], k = 0..c, from the generating polynomial ∏(1 − q + q·x)."""
    poly = np.ones(1)
    for q in qs:
        poly = np.convolve(poly, (1.0 - q, q))
    tail = np.cumsum(poly[::-1])[::-1]
    tail[0] = 1.0
    return tail


def poisson_direct(lam: float, c: int) -> np.ndarray:
    """Pr[Poisson(λ) ≥ k], k = 0..c, from the log-space pmf."""
    if lam <= 0:
        return np.r_[1.0, np.zeros(c)]
    pmf = [math.exp(-lam + j * math.log(lam) - math.lgamma(j + 1)) for j in range(c)]
    return np.r_[1.0, 1.0 - np.cumsum(pmf)]


def ap_oracle(qs) -> tuple[np.ndarray, str]:
    """The §5.3 cascade and its tails, written from the paper with Python
    sums and closed forms."""
    qs = [float(q) for q in qs]
    c = len(qs)
    if c == 0:
        return np.ones(1), "dp"
    mu = sum(qs)
    var = sum(q * (1 - q) for q in qs)
    if c >= A:
        ks = np.arange(c + 1)
        if var <= 0:
            tail = (ks <= mu + 1e-12).astype(float)
        else:
            tail = np.array([0.5 * math.erfc((k - mu) / math.sqrt(2 * var)) for k in ks])
        tail[0] = 1.0
        return tail, "clt"
    if c < B and max(qs) < C:
        return poisson_direct(mu, c), "poisson"
    if sum(q * q for q in qs) > 1:
        shift = max(0, math.floor(mu - var))
        base = poisson_direct(mu - shift, c)
        return np.array([1.0 if k <= shift else base[k - shift] for k in range(c + 1)]), "tpoisson"
    pbar = mu / c
    if c * pbar * (1 - pbar) > 0 and var / (c * pbar * (1 - pbar)) >= D:
        return convolve_tail([pbar] * c), "binomial"
    return convolve_tail(qs), "dp"


def assert_kappa_definition(kappa, p, tail, theta):
    """κ is the largest k ≤ c with p·tail[k] ≥ θ, up to float round-off."""
    c = len(tail) - 1
    if p < theta - EPS:
        assert kappa == -1
        return
    assert 0 <= kappa <= c
    assert p * tail[kappa] >= theta - 1e-9
    if kappa < c:
        assert p * tail[kappa + 1] < theta + 1e-9


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("seed", range(2))
def test_batched_dp_against_convolution(seed, theta):
    rows, p = ragged_rows(seed)
    kappa = kappa_dp(p, batch_of(rows), theta)
    for qs, p_r, k in zip(rows, p, kappa.tolist()):
        assert [k] == kappa_dp(np.array([p_r]), batch_of([qs]), theta).tolist()
        assert_kappa_definition(k, p_r, convolve_tail(qs), theta)
    if theta < EPS:
        assert kappa.tolist() == [len(qs) for qs in rows]


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("seed", range(2))
def test_batched_ap_against_closed_forms(seed, theta):
    rows, p = ragged_rows(seed)
    kappa, methods = kappa_ap(p, batch_of(rows), theta)
    expect = Counter()
    for qs, p_r, k in zip(rows, p, kappa.tolist()):
        tail, method = ap_oracle(qs)
        expect[method] += 1
        one, one_method = kappa_ap(np.array([p_r]), batch_of([qs]), theta)
        assert (one.tolist(), one_method) == ([k], Counter({method: 1}))
        assert_kappa_definition(k, p_r, tail, theta)
    assert methods == expect
    assert set(methods) == set(METHODS)
    if theta < EPS:
        assert kappa.tolist() == [len(qs) for qs in rows]


def test_padded_dp_tail_is_bit_identical():
    """Zero padding changes no tail entry up to the row's own c."""
    rows, _ = ragged_rows(7)
    batch = batch_of(rows)
    for idx, width in batch.buckets():
        assert width == 0 or (width & (width - 1) == 0 and width >= batch.c[idx].max())
        tails = pb_tail(batch.pad(idx, width))
        for r, tail in zip(idx.tolist(), tails):
            c = len(rows[r])
            assert np.array_equal(tail[: c + 1], pb_tail(rows[r][None])[0])
            assert not tail[c + 1 :].any()


def test_batch_moments_are_row_sums():
    """The selector's moments are the floats numpy's one-row sums give,
    so the batch picks the same method as one row does."""
    rows, _ = ragged_rows(3)
    mu, q_max, sq, var = _moments(batch_of(rows))
    for r, qs in enumerate(rows):
        assert mu[r] == qs.sum() and sq[r] == (qs**2).sum()
        assert var[r] == (qs * (1.0 - qs)).sum()
        assert q_max[r] == qs.max(initial=0.0)


# --- the batched peel: pinned digests and counters ---------------------------

#: (graph, sf, θ) -> (DP ν, AP ν, AP method counts), digests of the int64
#: bytes of ν recorded with the per-triangle peel that preceded batching
PINNED = {
    ("krogan", 0.15, 0.1): (
        "42aa74391db0e758", "54367976e7a4d62d", {"binomial": 44, "dp": 35, "tpoisson": 311}
    ),
    ("krogan", 0.15, 0.3): (
        "a29a2953f8aaf9f5", "fb4bb8ee780f8bc9", {"binomial": 64, "dp": 24, "tpoisson": 245}
    ),
    ("enwiki", 0.04, 0.1): (
        "b5247bccde07f93b",
        "3595c0234725b52e",
        {"binomial": 2189, "dp": 668, "poisson": 90, "tpoisson": 8575},
    ),
    ("enwiki", 0.04, 0.3): (
        "6d92c1c24eddb155",
        "72cdccc02a3e7a14",
        {"binomial": 925, "dp": 403, "poisson": 1, "tpoisson": 878},
    ),
}


def nu_digest(d) -> str:
    return hashlib.sha256(d.nu.astype(np.int64).tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("graph,sf", [("krogan", 0.15), ("enwiki", 0.04)])
def test_pinned_digests(spark, graph, sf):
    edge_df = analog(spark, graph, sf=sf)
    structs = collect_structures(spark, edge_df)
    for theta in (0.1, 0.3):
        dp_nu, ap_nu, ap_methods = PINNED[graph, sf, theta]
        dp = local_decomposition(spark, edge_df, theta, scorer="dp", structures=structs)
        ap = local_decomposition(spark, edge_df, theta, scorer="ap", structures=structs)
        assert (nu_digest(dp), nu_digest(ap)) == (dp_nu, ap_nu)
        assert dict(ap.methods) == ap_methods


def test_peel_counters_on_k5(spark):
    """K5 with p = 1: one round removes all ten triangles at level 2."""
    d = local_decomposition(spark, spark.createDataFrame(complete_graph(5)), 0.5)
    assert (d.rounds, d.rescored) == (1, 0)
    assert d.methods == Counter(dp=10)


def test_peel_counters_cascade(spark):
    """K5 with p(0,1) = 0.5 at θ = 0.6: the three triangles on edge 0-1 are
    filtered and kill three cliques. Round 1 removes the six triangles left
    in one clique (κ = 1); (2,3,4) loses both cliques, is rescored to κ = 0
    and goes in round 2, still at level 1."""
    pdf = complete_graph(5)
    pdf.loc[(pdf.u == 0) & (pdf.v == 1), "p"] = 0.5
    d = local_decomposition(spark, spark.createDataFrame(pdf), 0.6)
    assert (d.rounds, d.rescored) == (2, 1)
    assert sorted(d.nu.tolist()) == [-1] * 3 + [1] * 7
    assert d.methods == Counter(dp=8)


def test_empty_batch_shapes():
    assert kappa_dp(np.zeros(0), batch_of([]), 0.1).shape == (0,)
    kappa, methods = kappa_ap(np.zeros(0), batch_of([]), 0.1)
    assert kappa.shape == (0,) and not methods
