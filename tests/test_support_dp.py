"""Exact Poisson-binomial DP (paper Eq. 6–7) vs first-principles enumeration,
each q row scored as a batch of one."""
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import batch_of
from repro.prob.support import kappa_dp, kappa_from_tail, pb_pmf, pb_tail

probs = st.lists(st.floats(0.0, 1.0), min_size=0, max_size=9)


def one_row(qs) -> np.ndarray:
    """One q row as a (1 × c) array."""
    return np.asarray(qs, np.float64).reshape(1, -1)


def kappa_one(p_tri, qs, theta) -> int:
    """κ of one q row, scored as a batch of one."""
    return int(kappa_dp(np.array([p_tri]), batch_of([qs]), theta)[0])


def brute_tail(qs, k):
    """Pr[ζ ≥ k] by enumerating all subsets of Bernoulli outcomes."""
    total = 0.0
    for bits in product([0, 1], repeat=len(qs)):
        if sum(bits) >= k:
            pr = 1.0
            for b, q in zip(bits, qs):
                pr *= q if b else 1.0 - q
            total += pr
    return total


@settings(max_examples=60, deadline=None)
@given(probs)
def test_pmf_sums_to_one(qs):
    assert pb_pmf(one_row(qs)).sum() == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(probs)
def test_tail_matches_enumeration(qs):
    tail = pb_tail(one_row(qs))[0]
    for k in range(len(qs) + 1):
        assert tail[k] == pytest.approx(brute_tail(qs, k), abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(probs)
def test_tail_monotone_nonincreasing(qs):
    tail = pb_tail(one_row(qs))[0]
    assert np.all(np.diff(tail) <= 1e-12)


@settings(max_examples=40, deadline=None)
@given(probs, st.floats(0.01, 0.99), st.floats(0.05, 1.0))
def test_kappa_definition(qs, theta, p_tri):
    """κ is exactly the max k with p_tri·tail[k] ≥ θ."""
    tail = pb_tail(one_row(qs))[0]
    k = kappa_one(p_tri, qs, theta)
    if p_tri < theta:
        assert k == -1
    else:
        assert p_tri * tail[k] >= theta - 1e-9
        if k + 1 < tail.size:
            assert p_tri * tail[k + 1] < theta + 1e-9


@settings(max_examples=30, deadline=None)
@given(probs, st.floats(0.05, 0.5))
def test_kappa_monotone_in_theta(qs, theta):
    """Raising θ can only lower κ."""
    k_lo = kappa_one(1.0, qs, theta)
    k_hi = kappa_one(1.0, qs, min(0.99, theta * 1.8))
    assert k_hi <= k_lo


def test_certain_cliques():
    assert kappa_one(1.0, [1.0, 1.0, 1.0], 0.5) == 3


def test_empty_support():
    assert kappa_one(0.9, [], 0.5) == 0
    assert kappa_one(0.3, [], 0.5) == -1


def test_half_half():
    # two independent 0.5 cliques: tail = [1, .75, .25]
    assert pb_tail(one_row([0.5, 0.5]))[0] == pytest.approx([1.0, 0.75, 0.25])
    assert kappa_one(1.0, [0.5, 0.5], 0.7) == 1
    assert kappa_one(1.0, [0.5, 0.5], 0.2) == 2


def test_kappa_from_tail_prefix_semantics():
    tail = np.array([[1.0, 0.6, 0.3, 0.1]])
    assert kappa_from_tail([1.0], tail, 0.25, [3]).tolist() == [2]
    assert kappa_from_tail([1.0], tail, 0.05, [3]).tolist() == [3]
    assert kappa_from_tail([0.5], tail, 0.6, [3]).tolist() == [-1]
    # c masks the tail beyond a row's own length
    assert kappa_from_tail([1.0], tail, 0.05, [1]).tolist() == [1]


@pytest.mark.parametrize("c", [1, 5, 20, 100, 400])
def test_large_counts_stable(c):
    """DP stays a valid distribution at large c (no drift/overflow)."""
    qs = np.linspace(0.01, 0.99, c)
    pmf = pb_pmf(one_row(qs))[0]
    assert pmf.sum() == pytest.approx(1.0, abs=1e-8)
    assert (pmf >= -1e-12).all()
