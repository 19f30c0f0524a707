"""Deterministic possible-world sampler (paper §6, Monte-Carlo estimation).

A possible world keeps edge e independently with probability p_e. Sampling is
deterministic in its stream key: FG and WG key one stream per candidate,
(seed, candidate), and draw the candidate's n worlds from it as one (n × m)
mask, so repeated runs are identical (matching the paper's fixed-sample-count
methodology). ``Generator.random`` fills the (n × m) uniforms row-major, so
the first n′ worlds of an n-world draw are exactly the n′-world draw: a
smaller sample is a prefix of a larger one.
"""
import numpy as np


def world_masks(p: np.ndarray, n: int, key) -> np.ndarray:
    """(n × m) boolean keep-masks over the m edges of ``p``: row s is world s
    of stream ``key`` (a sequence of non-negative ints, e.g.
    (seed, candidate)). Row s does not depend on n."""
    rng = np.random.default_rng(key)
    return rng.random((n, p.size)) < p
