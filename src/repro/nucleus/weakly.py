"""WG — weakly-global nucleus decomposition (Algorithm 3).

w-NuDecomp is NP-hard (Theorem 4.2); the paper's WG algorithm samples n
possible worlds of each ℓ-(k,θ)-nucleus H, runs a *deterministic* nucleus
decomposition on every world (`repro.det.nucleus` is the per-world reference
the tests hold the vectorised kernel to), and keeps the
triangles whose fraction of worlds containing them inside a deterministic
k-nucleus reaches θ. The output w-nuclei are the s-connected unions of the
surviving triangles' 4-cliques.

The per-world decompositions run on the driver in the shared
`mc_triangle_counts` kernel (mode "w"): for one local nucleus at a time, the
level-k triangle peel runs to a fixpoint over all n sampled worlds at once.
Its counts, keyed by sorted vertex triple, are mapped to tids in one lookup
per nucleus and filtered as an array over tids. No Spark job runs here; the
``spark`` parameters are unused.
"""
import numpy as np
from pyspark.sql import SparkSession

from repro.nucleus.local import (
    LocalDecomposition,
    NucleusSubgraph,
    connected_subgraphs,
    ell_nuclei,
)
from repro.nucleus.global_ import mc_triangle_counts
from repro.prob.sampler import hoeffding_samples


def w_nuclei(
    spark: SparkSession,
    decomp: LocalDecomposition,
    k: int,
    *,
    eps: float = 0.1,
    delta: float = 0.1,
    n: int | None = None,
    seed: int = 0,
) -> list[NucleusSubgraph]:
    """All w-(k,θ)-nuclei for one k (Algorithm 3). ``spark`` is unused:
    extraction and the Monte-Carlo check run on the driver."""
    n = n if n is not None else max(200, hoeffding_samples(eps, delta))
    theta = decomp.theta
    locals_ = ell_nuclei(decomp, k)
    cand_edges = {i: h.edges for i, h in enumerate(locals_)}
    counts = mc_triangle_counts(spark, cand_edges, k, n, seed, "w")
    out: list[NucleusSubgraph] = []
    for i, h in enumerate(locals_):
        got = counts[i]
        frac = np.zeros(len(decomp.nu))
        frac[decomp.tids_of(list(got))] = np.array(list(got.values())) / n
        kept = np.zeros(len(decomp.nu), bool)
        kept[list(h.tids)] = True
        # connected union of surviving triangles' 4-cliques within H
        out.extend(connected_subgraphs(decomp, k, kept & (frac >= theta)))
    return out


def w_decomposition(
    spark: SparkSession, decomp: LocalDecomposition, **kw
) -> dict[int, list[NucleusSubgraph]]:
    """w-(k,θ)-nuclei for every k = 1..k_max (k_max from the local pass)."""
    return {k: w_nuclei(spark, decomp, k, **kw) for k in range(1, decomp.k_max + 1)}
