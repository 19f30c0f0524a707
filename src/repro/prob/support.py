"""Exact Poisson-binomial support machinery (paper §5.1, Eq. 6–7).

For a triangle △ with surviving 4-clique extension probabilities
q_1..q_c (q_i = Pr(E_i), mutually independent because the extension edge
sets are disjoint), the support count ζ = Σ Bernoulli(q_i) is
Poisson-binomial. The dynamic program below is the textbook O(c²)
convolution of Eq. 7; the nucleus score is

    κ(△) = max { k : Pr(△) · Pr[ζ ≥ k] ≥ θ },   κ = −1 if even k=0 fails.

Every kernel takes one row of q values or a (rows × W) batch of rows
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

    @classmethod
    def of(cls, rows) -> "Batch":
        """The batch of a list of q rows."""
        rows = [np.asarray(r, np.float64).ravel() for r in rows]
        return cls(np.concatenate([np.zeros(0), *rows]), [len(r) for r in rows])

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


def pb_pmf(qs: np.ndarray) -> np.ndarray:
    """Poisson-binomial pmf of ζ = Σ Bern(q_i): length c + 1 for one row of
    c q values, (rows × W + 1) for a zero-padded (rows × W) batch."""
    Q = np.asarray(qs, dtype=np.float64)
    one = Q.ndim == 1
    Q = Q[None] if one else Q
    R = 1.0 - Q
    dp = np.zeros((Q.shape[0], Q.shape[1] + 1))
    dp[:, 0] = 1.0
    for j in range(Q.shape[1]):
        # dp[:, :j+2] holds the pmf over the first j+1 cliques (Eq. 7)
        hit = dp[:, : j + 1] * Q[:, j : j + 1]
        dp[:, 1 : j + 2] *= R[:, j : j + 1]
        dp[:, 1 : j + 2] += hit
        dp[:, 0] *= R[:, j]
    return dp[0] if one else dp


def tail_from_pmf(pmf: np.ndarray) -> np.ndarray:
    """tail[..., k] = Pr[ζ ≥ k] along the last axis (tail[..., 0] forced
    to 1)."""
    tail = np.cumsum(pmf[..., ::-1], axis=-1)[..., ::-1]
    tail[..., 0] = 1.0
    return np.clip(tail, 0.0, 1.0)


def pb_tail(qs: np.ndarray) -> np.ndarray:
    """Exact DP tail Pr[ζ ≥ k], k = 0..W, of one row or of each batch row."""
    return tail_from_pmf(pb_pmf(qs))


def kappa_from_tail(p_tri, tail: np.ndarray, theta: float, c=None):
    """max k ≤ c with Pr(△)·Pr[ζ ≥ k] ≥ θ; −1 when the triangle itself
    fails θ. One tail gives an int. A (rows × W + 1) batch of tails, with
    ``p_tri`` and ``c`` per row, gives an int array; ``c`` masks the padded
    k > c, whose tail is not 0 for every approximation."""
    tail = np.asarray(tail)
    one = tail.ndim == 1
    tail = tail[None] if one else tail
    ok = np.reshape(p_tri, (-1, 1)) * tail >= theta - EPS
    if c is not None:
        ok &= np.arange(tail.shape[1]) <= np.reshape(c, (-1, 1))
    # κ + 1 is the first k that fails; all pass → κ = W
    kappa = np.where(ok.all(axis=1), tail.shape[1], ok.argmin(axis=1)) - 1
    return int(kappa[0]) if one else kappa


def kappa_rows(p_rows: np.ndarray, batch: Batch, theta: float, tail_fn) -> np.ndarray:
    """κ of every row of ``batch``, the tails from ``tail_fn`` applied to
    each zero-padded width bucket."""
    kappa = np.empty(len(batch), np.int64)
    for idx, width in batch.buckets():
        tail = tail_fn(batch.pad(idx, width))
        kappa[idx] = kappa_from_tail(p_rows[idx], tail, theta, batch.c[idx])
    return kappa


def kappa_dp(p_tri, qs, theta: float):
    """Exact κ score via the dynamic program: an int for one row of q
    values, an int array for a :class:`Batch` with ``p_tri`` per row."""
    if isinstance(qs, Batch):
        return kappa_rows(np.asarray(p_tri), qs, theta, pb_tail)
    return kappa_from_tail(p_tri, pb_tail(qs), theta)
