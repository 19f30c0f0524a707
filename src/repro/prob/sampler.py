"""Deterministic possible-world sampler (paper §6, Monte-Carlo estimation).

A possible world keeps edge e independently with probability p_e. Sampling is
deterministic in its stream key: FG and WG key each world by
(seed, candidate, sample) and draw it from ``default_rng(key)``, so a world
does not depend on the order or the batching in which worlds are evaluated,
and repeated runs are identical (matching the paper's fixed-sample-count
methodology). ``mc_triangle_counts`` stacks a candidate's n worlds into one
(n × m) mask, one ``world_mask`` call per row.
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
