"""AP approximations (paper §5.3): each distribution against the exact DP,
plus the (A,B,C,D) selector cascade. Every kernel takes arrays of rows, so
one row is passed as an array of one."""
import math

import numpy as np
import pytest

from helpers import batch_of
from repro.prob.approx import (
    A,
    B,
    C,
    D,
    binomial_tail,
    clt_tail,
    kappa_ap,
    poisson_tail,
    translated_poisson_tail,
)
from repro.prob.support import kappa_dp, pb_tail


def one(*params) -> list[np.ndarray]:
    """Each parameter as an array of one row."""
    return [np.array([x]) for x in params]


def dp_tail(qs) -> np.ndarray:
    """The exact DP tail of one q row."""
    return pb_tail(np.asarray(qs, np.float64).reshape(1, -1))[0]


def choose_method(qs) -> str:
    """The method the §5.3 cascade picks for one q row."""
    (method,) = kappa_ap(np.ones(1), batch_of([qs]), 0.5)[1]
    return method


def poisson_tail_direct(lam, c):
    """Independent reference: tail from factorial pmf."""
    out = []
    for k in range(c + 1):
        cdf = sum(math.exp(-lam) * lam**j / math.factorial(j) for j in range(k))
        out.append(1.0 - cdf)
    out[0] = 1.0
    return np.array(out)


@pytest.mark.parametrize("lam", [0.1, 1.0, 3.7, 10.0])
@pytest.mark.parametrize("c", [0, 1, 5, 30])
def test_poisson_tail_matches_direct(lam, c):
    assert poisson_tail(*one(lam), c)[0] == pytest.approx(poisson_tail_direct(lam, c), abs=1e-10)


def test_poisson_zero_lambda():
    t = poisson_tail(*one(0.0), 4)[0]
    assert t[0] == 1.0 and t[1:].sum() == 0.0


@pytest.mark.parametrize("n,p", [(5, 0.3), (10, 0.5), (50, 0.9), (80, 0.02)])
def test_binomial_tail_equals_dp_with_equal_probs(n, p):
    """With identical q_i the Poisson-binomial IS Binomial — exact match."""
    assert binomial_tail(*one(n, p), n)[0] == pytest.approx(dp_tail(np.full(n, p)), abs=1e-9)


def test_binomial_degenerate():
    assert binomial_tail(*one(4, 0.0), 4)[0] == pytest.approx([1, 0, 0, 0, 0])
    assert binomial_tail(*one(4, 1.0), 4)[0] == pytest.approx([1, 1, 1, 1, 1])


def test_translated_poisson_zero_shift_is_poisson():
    # var == mu ⇒ shift 0 ⇒ plain Poisson
    mu = 2.0
    assert translated_poisson_tail(*one(mu, mu), 10)[0] == pytest.approx(
        poisson_tail(*one(mu), 10)[0]
    )


@pytest.mark.parametrize("seed", range(4))
def test_translated_poisson_close_to_dp_high_probs(seed):
    """The regime the paper uses it for: large Pr(E_i), Σq² > 1."""
    rng = np.random.default_rng(seed)
    qs = rng.uniform(0.5, 0.95, 40)
    mu, var = qs.sum(), (qs * (1 - qs)).sum()
    approx = translated_poisson_tail(*one(mu, var), 40)[0]
    exact = dp_tail(qs)
    assert np.abs(approx - exact).max() < 0.12


@pytest.mark.parametrize("seed", range(4))
def test_clt_close_to_dp_large_c(seed):
    rng = np.random.default_rng(100 + seed)
    qs = rng.uniform(0.2, 0.8, 500)
    mu, var = qs.sum(), (qs * (1 - qs)).sum()
    approx = clt_tail(*one(mu, math.sqrt(var)), 500)[0]
    exact = dp_tail(qs)
    assert np.abs(approx - exact).max() < 0.06


@pytest.mark.parametrize("seed", range(4))
def test_poisson_close_to_dp_small_probs(seed):
    """Le Cam regime: small Pr(E_i) ⇒ Poisson error bounded by 2Σq²."""
    rng = np.random.default_rng(200 + seed)
    qs = rng.uniform(0.0, 0.1, 50)
    approx = poisson_tail(*one(qs.sum()), 50)[0]
    exact = dp_tail(qs)
    assert np.abs(approx - exact).max() < 2 * (qs**2).sum() + 0.01


# --- selector cascade -------------------------------------------------------


def test_selector_clt_branch():
    assert choose_method(np.full(A, 0.5)) == "clt"
    assert choose_method(np.full(A + 100, 0.01)) == "clt"


def test_selector_poisson_branch():
    assert choose_method(np.full(50, 0.1)) == "poisson"
    assert choose_method(np.full(B - 1, C - 0.01)) == "poisson"


def test_selector_tpoisson_branch():
    # max q ≥ C blocks Poisson; Σq² = 12.5 > 1 → translated Poisson
    assert choose_method(np.full(50, 0.5)) == "tpoisson"


def test_selector_binomial_branch():
    # equal q = 0.3, c = 10: Σq² = 0.9 ≤ 1, variance ratio exactly 1 ≥ D
    assert choose_method(np.full(10, 0.3)) == "binomial"


def test_selector_dp_fallback():
    # spread-out q's: ratio = Σq(1-q)/(c·p̄(1-p̄)) = .18/.5 < D → DP
    assert choose_method(np.array([0.9, 0.1])) == "dp"


def test_selector_empty():
    assert choose_method(np.array([])) == "dp"


def test_selector_thresholds_are_papers():
    assert (A, B, C, D) == (200, 100, 0.25, 0.9)


# --- end-to-end κ agreement -------------------------------------------------


@pytest.mark.parametrize("regime,lo,hi,c", [
    ("small-probs", 0.0, 0.08, 40),
    ("binomial-ish", 0.28, 0.32, 12),
    ("large-c", 0.2, 0.8, 300),
    ("high-probs", 0.6, 0.95, 60),
])
@pytest.mark.parametrize("theta", [0.1, 0.3, 0.5])
def test_kappa_ap_close_to_dp(regime, lo, hi, c, theta):
    """Across the paper's regimes, AP κ lands within 1 of exact DP κ
    (Table 2 shows sub-1% average error on real data)."""
    rng = np.random.default_rng(hash((regime, theta)) % 2**32)
    batch = batch_of([rng.uniform(lo, hi, c) for _ in range(20)])
    k_ap, _ = kappa_ap(np.ones(20), batch, theta)
    diffs = np.abs(k_ap - kappa_dp(np.ones(20), batch, theta))
    assert np.mean(diffs) <= 1.0
    assert max(diffs) <= 3


def test_kappa_ap_respects_p_tri_filter():
    k, _ = kappa_ap(np.array([0.05]), batch_of([np.full(10, 0.5)]), 0.1)
    assert k.tolist() == [-1]
