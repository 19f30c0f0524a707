"""Deterministic possible-world sampler (paper §6, Monte-Carlo estimation).

A possible world keeps edge e independently with probability p_e. Sampling is
deterministic in its stream key: FG and WG key each world by
(seed, candidate, sample) and draw it from ``default_rng(key)``, so Spark
fan-out over samples reproduces the same worlds regardless of partitioning,
and repeated runs are identical (matching the paper's fixed-sample-count
methodology).
"""
import math

import numpy as np


def hoeffding_samples(eps: float, delta: float) -> int:
    """Minimum sample count n ≥ ⌈ln(2/δ) / (2ε²)⌉ from Lemma 4."""
    return int(math.ceil(math.log(2.0 / delta) / (2.0 * eps * eps)))


def world_mask(p: np.ndarray, key) -> np.ndarray:
    """Boolean keep-mask over edges for the world of stream ``key`` (a
    sequence of non-negative ints, e.g. (seed, candidate, sample))."""
    rng = np.random.default_rng(key)
    return rng.random(p.size) < p
