"""FG — (fully) global nucleus decomposition (Algorithm 2).

g-(k,θ)-nuclei are intractable exactly (#P-hard, Theorem 4.1), so the paper
prunes the search space to candidates grown inside the union C_k of the
ℓ-(k,θ)-nuclei and validates each candidate with Monte-Carlo sampling of its
possible worlds: a candidate H is accepted when, for every triangle △ of H,
the fraction of sampled worlds that are *deterministic k-nuclei* containing
△ is at least θ.

Monte-Carlo fan-out runs on Spark: one row per (candidate, sample), the
per-world deterministic k-nucleus check (`repro.det.nucleus.is_k_nucleus`)
runs inside a mapInPandas kernel against broadcast candidate edge lists, and
per-triangle indicator counts come back through a groupBy. Worlds are drawn
by `repro.prob.sampler.world_mask` from the stream (seed, candidate,
sample), so they do not depend on how Spark partitions the samples.
"""
from collections import defaultdict

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.det.adjacency import adj_sets, enumerate_triangles, tid_of
from repro.det.nucleus import is_k_nucleus, nucleus_numbers
from repro.nucleus.local import (
    LocalDecomposition,
    NucleusSubgraph,
    cliques_within,
    ell_nuclei,
    union_subgraph,
)
from repro.prob.sampler import hoeffding_samples, world_mask


def mc_triangle_counts(
    spark: SparkSession,
    candidates: dict[int, dict],
    k: int,
    n: int,
    seed: int,
    mode: str,
) -> dict[int, dict[str, int]]:
    """For each candidate edge set, count over n sampled worlds how many
    worlds satisfy the μ-indicator for each triangle (Definition 4).

    ``candidates`` maps id -> {(u,v): p}. mode "g": world must be a
    deterministic k-nucleus and contain the triangle. mode "w": the
    triangle's deterministic ν in the world must be ≥ k.
    """
    if not candidates:
        return {}
    payload = {
        cid: sorted((u, v, p) for (u, v), p in edges.items())
        for cid, edges in candidates.items()
    }
    bc = spark.sparkContext.broadcast(payload)

    def kernel(batches):
        for pdf in batches:
            out_c, out_t = [], []
            for cid, sid in zip(pdf["cand"], pdf["sid"]):
                rows = bc.value[cid]
                ps = np.array([r[2] for r in rows])
                mask = world_mask(ps, (seed, int(cid), int(sid)))
                world = [(rows[i][0], rows[i][1]) for i in np.flatnonzero(mask)]
                if mode == "g":
                    if is_k_nucleus(world, k):
                        for t in enumerate_triangles(adj_sets(world)):
                            out_c.append(cid)
                            out_t.append(tid_of(t))
                elif mode == "w":
                    nu_det = nucleus_numbers(world)
                    for t, v in nu_det.items():
                        if v >= k:
                            out_c.append(cid)
                            out_t.append(tid_of(t))
                else:
                    raise ValueError(mode)
            yield pd.DataFrame({"cand": out_c, "tid": out_t})

    rows = [(cid, s) for cid in payload for s in range(n)]
    df = spark.createDataFrame(pd.DataFrame(rows, columns=["cand", "sid"]))
    counted = (
        df.repartition(max(1, min(len(rows) // 8 + 1, 64)))
        .mapInPandas(kernel, schema="cand long, tid string")
        .groupBy("cand", "tid")
        .count()
        .collect()
    )
    out: dict[int, dict[str, int]] = {cid: {} for cid in payload}
    for r in counted:
        out[r.cand][r.tid] = r["count"]
    return out


def grow_candidates(decomp: LocalDecomposition, k: int) -> list[dict]:
    """Algorithm 2 lines 5–8: for every triangle of C_k, grow the closure of
    4-cliques until every triangle it brought in has ≥ k cliques inside,
    then dedupe. Returns candidate edge dicts {(u,v): p}."""
    nuclei = ell_nuclei(decomp, k)
    cands: dict[frozenset, dict] = {}
    for nucleus in nuclei:
        # clique list of this component with member tids
        cl_rows = cliques_within(decomp.clique_pdf, nucleus.tids)
        tri_cliques: dict[str, list[int]] = defaultdict(list)
        for idx, (_, tids) in enumerate(cl_rows):
            for t in tids:
                tri_cliques[t].append(idx)
        for seed_tid in sorted(nucleus.tids):
            chosen = set(tri_cliques[seed_tid])
            while True:
                member_counts: dict[str, int] = defaultdict(int)
                for ci in chosen:
                    for t in cl_rows[ci][1]:
                        member_counts[t] += 1
                deficient = [t for t, c in member_counts.items() if c < k]
                added = False
                for t in deficient:
                    for ci in tri_cliques[t]:
                        if ci not in chosen:
                            chosen.add(ci)
                            added = True
                if not added:
                    break
            if not chosen:
                continue
            key = frozenset((id(nucleus), ci) for ci in chosen)
            if key in cands:
                continue
            cands[key] = union_subgraph(k, (cl_rows[ci] for ci in chosen)).edges
    return list(cands.values())


def g_nuclei(
    spark: SparkSession,
    decomp: LocalDecomposition,
    k: int,
    *,
    eps: float = 0.1,
    delta: float = 0.1,
    n: int | None = None,
    seed: int = 0,
) -> list[NucleusSubgraph]:
    """All accepted g-(k,θ)-nuclei for one k (Algorithm 2)."""
    n = n if n is not None else max(200, hoeffding_samples(eps, delta))
    theta = decomp.theta
    cand_edges = {i: e for i, e in enumerate(grow_candidates(decomp, k))}
    counts = mc_triangle_counts(spark, cand_edges, k, n, seed, "g")
    accepted: list[NucleusSubgraph] = []
    for cid, edges in cand_edges.items():
        tris = enumerate_triangles(adj_sets(edges))
        got = counts.get(cid, {})
        if tris and all(got.get(tid_of(t), 0) / n >= theta for t in tris):
            accepted.append(
                NucleusSubgraph(
                    k,
                    {v for e in edges for v in e},
                    dict(edges),
                    {tid_of(t) for t in tris},
                )
            )
    # maximality: drop candidates strictly contained in another accepted one
    out = []
    for a in accepted:
        if not any(
            b is not a and a.edges.keys() <= b.edges.keys() and len(b.edges) > len(a.edges)
            for b in accepted
        ):
            out.append(a)
    return out


def g_decomposition(
    spark: SparkSession, decomp: LocalDecomposition, **kw
) -> dict[int, list[NucleusSubgraph]]:
    """g-(k,θ)-nuclei for every k = 1..k_max (k_max from the local pass)."""
    return {k: g_nuclei(spark, decomp, k, **kw) for k in range(1, decomp.k_max + 1)}
