"""AP — statistical approximations of the Poisson-binomial tail (paper §5.3).

Four O(c) approximations of Pr[ζ ≥ k] — Poisson (Le Cam), Translated
Poisson (Röllin), Lyapunov-CLT Normal, and Binomial (Ehm) — plus the paper's
hyperparameter selector with exact-DP fallback:

    (1) c ≥ A                         → CLT
    (2) c < B and max q_i < C         → Poisson(λ = μ)
    (3) Σ q_i² > 1                    → Translated Poisson
    (4) σ²/(c·p̄(1−p̄)) ≥ D, p̄ = μ/c → Binomial(n=c, p=p̄)
    (5) otherwise                     → exact DP

with the paper's values A=200, B=100, C=0.25, D=0.9.

:func:`kappa_ap` scores a whole :class:`~repro.prob.support.Batch` at once:
the cascade runs on per-row moments, and each method's tail is computed for
all its rows of one width bucket together. Each tail function takes arrays
of per-row parameters and a width W and returns a (rows × W + 1) array of
tails; a row's tail up to its own c does not depend on W, and
:func:`~repro.prob.support.kappa_from_tail` masks the rest.
"""
import math
from collections import Counter

import numpy as np

from repro.prob.support import Batch, kappa_from_tail, pb_tail, tail_from_pmf

A, B, C, D = 200, 100, 0.25, 0.9

#: the selector's methods; the cascade returns indices into this tuple
METHODS = ("dp", "clt", "poisson", "tpoisson", "binomial")

_erf = np.vectorize(math.erf, otypes=[np.float64])


def poisson_tail(lam: np.ndarray, c: int) -> np.ndarray:
    """tail[r, k] = Pr[Poisson(λ_r) ≥ k], k = 0..c (Eq. 8/10 recursion): one
    math.exp per λ, then a running product along the row."""
    ks = np.arange(1, c + 1)
    e = np.array([math.exp(-x) for x in lam.tolist()])[:, None]
    pmf = np.concatenate([e, e * np.cumprod(lam[:, None] / ks, axis=1)], axis=1)
    cdf_below = np.zeros_like(pmf)  # Pr[ζ < k]
    cdf_below[:, 1:] = np.cumsum(pmf[:, :-1], axis=1)
    return np.clip(1.0 - cdf_below, 0.0, 1.0)


def translated_poisson_tail(mu: np.ndarray, var: np.ndarray, c: int) -> np.ndarray:
    """Translated Poisson Y = ⌊λ₂⌋ + Pois(μ − ⌊λ₂⌋), λ₂ = μ − σ² (Eq. 11–12).

    For a Poisson-binomial, σ² = Σq(1−q) ≤ Σq = μ, so the shift ⌊λ₂⌋ is
    always ≥ 0; shift = 0 degenerates to the plain Poisson approximation.
    """
    shift = np.maximum(0, np.floor(mu - var)).astype(np.int64)
    base = poisson_tail(mu - shift, c)
    j = np.arange(c + 1) - shift[:, None]  # Pr[Y ≥ k] = Pr[Pois ≥ k − shift]
    tail = np.where(j >= 0, np.take_along_axis(base, np.maximum(j, 0), axis=1), 1.0)
    tail[:, 0] = 1.0
    return tail


def clt_tail(mu: np.ndarray, sigma: np.ndarray, c: int) -> np.ndarray:
    """Normal survival 1 − Φ((k−μ)/σ) per Lyapunov CLT (Eq. 13)."""
    ks = np.arange(c + 1, dtype=np.float64)
    mu, sigma = mu[:, None], sigma[:, None]
    z = (ks - mu) / np.where(sigma > 0, sigma, 1.0)
    normal = 0.5 * (1.0 - _erf(z / math.sqrt(2.0)))
    tail = np.where(sigma > 0, normal, (ks <= mu + 1e-12).astype(np.float64))
    tail[:, 0] = 1.0
    return np.clip(tail, 0.0, 1.0)


def binomial_tail(n: np.ndarray, p: np.ndarray, width: int) -> np.ndarray:
    """tail[r, k] = Pr[Binomial(n_r, p_r) ≥ k], k = 0..``width`` (log-space
    pmf, Eq. 14), for int n_r ≤ width. The log-factorials come from one
    math.lgamma table over the integer arguments."""
    lg = np.array([math.lgamma(i) for i in range(1, width + 2)])  # lg[i] = ln Γ(i + 1)
    k = np.arange(width + 1)
    ks = k.astype(np.float64)
    inside = k <= n[:, None]
    ok = (p > 0) & (p < 1)
    ps = np.where(ok, p, 0.5)
    log_p = np.array([math.log(x) for x in ps.tolist()])[:, None]
    log_q = np.array([math.log1p(-x) for x in ps.tolist()])[:, None]
    logpmf = (
        lg[n][:, None]
        - lg[k]
        - lg[np.where(inside, n[:, None] - k, 0)]
        + ks * log_p
        + (n[:, None] - ks) * log_q
    )
    # k > n has no mass; −inf keeps exp from overflowing on padded k
    tail = tail_from_pmf(np.exp(np.where(inside, logpmf, -np.inf)))
    tail[p <= 0, 1:] = 0.0
    tail[p >= 1] = 1.0
    return tail


def _moments(batch: Batch):
    """μ, max q, Σq² and σ² = Σq(1−q) of each row of ``batch``. Each row's
    segment is summed with a 0.0 in front, so np.add.reduceat adds it as
    ``qs.sum()`` does (the identity first, then numpy's pairwise sum) and
    the moments are the same floats as one row's."""
    rows = len(batch)
    at = batch.start + np.arange(rows)
    pos = np.arange(len(batch.q)) + np.repeat(np.arange(1, rows + 1), batch.c)
    q = batch.q

    def seg(ufunc, x):
        z = np.zeros(len(x) + rows)
        z[pos] = x
        return ufunc.reduceat(z, at)

    return seg(np.add, q), seg(np.maximum, q), seg(np.add, q**2), seg(np.add, q * (1.0 - q))


def _cascade(c, mu, q_max, sq, var) -> np.ndarray:
    """The paper's §5.3 condition cascade per row, as indices into
    :data:`METHODS`."""
    with np.errstate(divide="ignore", invalid="ignore"):
        pbar = mu / c
        binom_var = c * pbar * (1.0 - pbar)
        binomial = (binom_var > 0) & (var / binom_var >= D)
    return np.select(
        [c == 0, c >= A, (c < B) & (q_max < C), sq > 1.0, binomial], [0, 1, 2, 3, 4], 0
    )


def _tail(m: int, batch: Batch, rows: np.ndarray, width: int, mu, var) -> np.ndarray:
    """The (len(rows) × width + 1) tails of method ``m`` for ``rows``, whose
    c is at most ``width``; the DP rows are zero-padded to ``width``."""
    c = batch.c[rows]
    if m == 1:
        return clt_tail(mu[rows], np.sqrt(var[rows]), width)
    if m == 2:
        return poisson_tail(mu[rows], width)
    if m == 3:
        return translated_poisson_tail(mu[rows], var[rows], width)
    if m == 4:
        return binomial_tail(c, mu[rows] / c, width)
    return pb_tail(batch.pad(rows, width))


def kappa_ap(p_tri: np.ndarray, batch: Batch, theta: float) -> tuple[np.ndarray, Counter]:
    """AP κ of every row of ``batch``, with ``p_tri`` per row, and the
    Counter of the approximations that produced them. Each method scores
    its rows of one width bucket together; the DP fallback rows go to
    :func:`~repro.prob.support.pb_tail` zero-padded."""
    mu, q_max, sq, var = _moments(batch)
    method = _cascade(batch.c, mu, q_max, sq, var)
    kappa = np.empty(len(batch), np.int64)
    for idx, width in batch.buckets():
        for m in np.unique(method[idx]).tolist():
            rows = idx[method[idx] == m]
            tail = _tail(m, batch, rows, width, mu, var)
            kappa[rows] = kappa_from_tail(p_tri[rows], tail, theta, batch.c[rows])
    counts = np.bincount(method, minlength=len(METHODS))
    return kappa, Counter({m: int(n) for m, n in zip(METHODS, counts) if n})
