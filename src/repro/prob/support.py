"""Exact Poisson-binomial support machinery (paper §5.1, Eq. 6–7).

For a triangle △ with surviving 4-clique extension probabilities
q_1..q_c (q_i = Pr(E_i), mutually independent because the extension edge
sets are disjoint), the support count ζ = Σ Bernoulli(q_i) is
Poisson-binomial. The dynamic program below is the textbook O(c²)
convolution of Eq. 7; the nucleus score is

    κ(△) = max { k : Pr(△) · Pr[ζ ≥ k] ≥ θ },   κ = −1 if even k=0 fails.

Every kernel takes a :class:`Batch` or a (rows × W) array of rows
zero-padded to a common width W. A padded q = 0 leaves every pmf entry
unchanged, and the reversed cumsum of the tail meets the padding zeros
first, so each row's tail up to its own c is the same float as that row's
unpadded tail. :class:`Batch` holds the rows the peel scores in one round
(`repro.nucleus.local.peel`) and pads them in buckets of W = 2^⌈log₂ c⌉.
"""
import numpy as np

#: absolute tolerance when comparing probabilities against θ — protects the
#: ≥ comparisons from float round-off in long convolutions.
EPS = 1e-12


class Batch:
    """Ragged rows of q values, stored compactly: row i is
    ``q[start[i] : start[i] + c[i]]``."""

    def __init__(self, q: np.ndarray, c: np.ndarray):
        self.q = np.asarray(q, np.float64)
        self.c = np.asarray(c, np.int64)
        self.start = np.cumsum(self.c) - self.c

    def __len__(self) -> int:
        return len(self.c)

    def positions(self, idx: np.ndarray) -> np.ndarray:
        """Indices into ``q`` of the rows ``idx``, row by row."""
        c = self.c[idx]
        return np.repeat(self.start[idx] - (np.cumsum(c) - c), c) + np.arange(c.sum())

    def buckets(self):
        """(row indices, W) for each width W = 2^⌈log₂ c⌉ the rows need
        (W = 0 for rows with c = 0)."""
        width = np.where(self.c > 0, 1 << np.frexp(np.maximum(self.c - 1, 0))[1], 0)
        for w in np.unique(width).tolist():
            yield np.flatnonzero(width == w), w

    def pad(self, idx: np.ndarray, width: int) -> np.ndarray:
        """The rows ``idx`` zero-padded to a (len(idx) × width) array."""
        Q = np.zeros((len(idx), width))
        Q[np.arange(width) < self.c[idx, None]] = self.q[self.positions(idx)]
        return Q


def pb_pmf(Q: np.ndarray) -> np.ndarray:
    """Poisson-binomial pmfs of ζ = Σ Bern(q_i), (rows × W + 1), of a
    zero-padded (rows × W) array of q rows."""
    R = 1.0 - Q
    dp = np.zeros((Q.shape[0], Q.shape[1] + 1))
    dp[:, 0] = 1.0
    for j in range(Q.shape[1]):
        # dp[:, :j+2] holds the pmf over the first j+1 cliques (Eq. 7)
        hit = dp[:, : j + 1] * Q[:, j : j + 1]
        dp[:, 1 : j + 2] *= R[:, j : j + 1]
        dp[:, 1 : j + 2] += hit
        dp[:, 0] *= R[:, j]
    return dp


def tail_from_pmf(pmf: np.ndarray) -> np.ndarray:
    """tail[..., k] = Pr[ζ ≥ k] along the last axis (tail[..., 0] forced
    to 1)."""
    tail = np.cumsum(pmf[..., ::-1], axis=-1)[..., ::-1]
    tail[..., 0] = 1.0
    return np.clip(tail, 0.0, 1.0)


def pb_tail(Q: np.ndarray) -> np.ndarray:
    """Exact DP tails Pr[ζ ≥ k], k = 0..W, of a zero-padded (rows × W)
    array of q rows."""
    return tail_from_pmf(pb_pmf(Q))


def kappa_from_tail(p_tri, tail: np.ndarray, theta: float, c) -> np.ndarray:
    """Per row of a (rows × W + 1) array of tails, with ``p_tri`` and ``c``
    per row: max k ≤ c with Pr(△)·Pr[ζ ≥ k] ≥ θ, −1 when the triangle
    itself fails θ. ``c`` masks the padded k > c, whose tail is not 0 for
    every approximation."""
    ok = np.reshape(p_tri, (-1, 1)) * tail >= theta - EPS
    ok &= np.arange(tail.shape[1]) <= np.reshape(c, (-1, 1))
    # κ + 1 is the first k that fails; all pass → κ = W
    return np.where(ok.all(axis=1), tail.shape[1], ok.argmin(axis=1)) - 1


def kappa_rows(p_rows: np.ndarray, batch: Batch, theta: float, tail_fn) -> np.ndarray:
    """κ of every row of ``batch``, the tails from ``tail_fn`` applied to
    each zero-padded width bucket."""
    kappa = np.empty(len(batch), np.int64)
    for idx, width in batch.buckets():
        tail = tail_fn(batch.pad(idx, width))
        kappa[idx] = kappa_from_tail(p_rows[idx], tail, theta, batch.c[idx])
    return kappa


def kappa_dp(p_tri: np.ndarray, batch: Batch, theta: float) -> np.ndarray:
    """Exact κ of every row of ``batch`` via the dynamic program, with
    ``p_tri`` per row."""
    return kappa_rows(p_tri, batch, theta, pb_tail)
