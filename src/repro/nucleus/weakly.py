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
Local nucleus i is candidate i of that kernel: its n worlds are the rows of
one `repro.prob.sampler.world_masks` draw from the stream (seed, i). Its
counts, keyed by sorted vertex triple, are mapped to tids in one lookup
per nucleus into one array over all tids, and one `connected_subgraphs`
call per k labels the w-nuclei. No Spark job runs here; the ``spark``
parameters are unused.
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


def w_nuclei(
    spark: SparkSession,
    decomp: LocalDecomposition,
    k: int,
    *,
    n: int = 200,
    seed: int = 0,
) -> list[NucleusSubgraph]:
    """All w-(k,θ)-nuclei for one k (Algorithm 3), each local nucleus
    sampled in ``n`` worlds (the paper's n = 200, as for FG). ``spark`` is
    unused: extraction and the Monte-Carlo check run on the driver."""
    locals_ = ell_nuclei(decomp, k)
    cand_edges = {i: h.edges for i, h in enumerate(locals_)}
    counts = mc_triangle_counts(spark, cand_edges, k, n, seed, "w")
    # the ℓ-nuclei of one k share no triangle, so each sets only its own tids
    keep = np.zeros(len(decomp.nu), bool)
    for i, h in enumerate(locals_):
        tids = decomp.tids_of(list(counts[i]))
        own = np.isin(tids, list(h.tids))
        keep[tids[own]] = np.fromiter(counts[i].values(), float)[own] / n >= decomp.theta
    # a clique whose four triangles are kept lies inside one ℓ-nucleus
    return connected_subgraphs(decomp, k, keep)


def w_decomposition(
    spark: SparkSession, decomp: LocalDecomposition, **kw
) -> dict[int, list[NucleusSubgraph]]:
    """w-(k,θ)-nuclei for every k = 1..k_max (k_max from the local pass)."""
    return {k: w_nuclei(spark, decomp, k, **kw) for k in range(1, decomp.k_max + 1)}
