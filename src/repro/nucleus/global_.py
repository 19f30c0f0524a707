"""FG — (fully) global nucleus decomposition (Algorithm 2).

g-(k,θ)-nuclei are intractable exactly (#P-hard, Theorem 4.1), so the paper
prunes the search space to candidates grown inside the union C_k of the
ℓ-(k,θ)-nuclei and validates each candidate with Monte-Carlo sampling of its
possible worlds: a candidate H is accepted when, for every triangle △ of H,
the fraction of sampled worlds that are *deterministic k-nuclei* containing
△ is at least θ.

The Monte-Carlo check runs on the driver, as in the paper's single-machine
implementation: candidates have tens of edges, so one candidate at a time
its n worlds are stacked into an (n × m) edge mask and the indicators are
evaluated for all n worlds at once with numpy over the candidate's triangle
and 4-clique index arrays. Worlds are drawn by
`repro.prob.sampler.world_mask` from the stream (seed, candidate, sample);
candidates are numbered in the order their seed triangles are visited, by
tid. The kernel counts per sorted vertex triple of the candidate; FG and WG
map those triples to the decomposition's tids with one lookup per
candidate. No Spark job runs here; the ``spark`` parameters of FG and WG are
unused.
"""
from collections import defaultdict

import numpy as np
from pyspark.sql import SparkSession

from repro.det.adjacency import adj_sets, canon, clique_triangles, cliques_of, enumerate_triangles
from repro.nucleus.local import (
    LocalDecomposition,
    NucleusSubgraph,
    cliques_within,
    ell_nuclei,
    union_subgraph,
)
from repro.prob.sampler import hoeffding_samples, world_mask

#: array elements one block of worlds may occupy in the indicator kernels;
#: the largest krogan (sf 1.0) candidate, 63 edges and 378 cliques, needs
#: about five blocks at Table 5's n = 2000
_BLOCK_ELEMS = 1 << 22


def _padded(lists: list[list[int]], fill: int) -> np.ndarray:
    """Ragged index lists as one array, short rows padded with ``fill``."""
    out = np.full((len(lists), max(1, max(map(len, lists), default=0))), fill, np.intp)
    for i, xs in enumerate(lists):
        out[i, : len(xs)] = xs
    return out


class _Candidate:
    """Index arrays of one candidate subgraph over its m edges (in mask
    order): every triangle (T × 3 edge indices) and every 4-clique (C × 6
    edge indices, C × 4 triangle indices) of the edge set, and the cliques
    of each triangle and of each edge, padded with the sentinel index C."""

    def __init__(self, keys: list):
        eidx = {canon(u, v): i for i, (u, v) in enumerate(keys)}
        adj = adj_sets(keys)
        self.tris = enumerate_triangles(adj)
        tidx = {t: i for i, t in enumerate(self.tris)}
        cliques = cliques_of(adj, self.tris)
        c = len(cliques)
        self.tri_edges = np.array(
            [[eidx[(a, b)], eidx[(a, z)], eidx[(b, z)]] for a, b, z in self.tris], np.intp
        ).reshape(-1, 3)
        self.clique_edges = np.array(
            [[eidx[(cl[i], cl[j])] for i in range(4) for j in range(i + 1, 4)] for cl in cliques],
            np.intp,
        ).reshape(-1, 6)
        self.clique_tris = np.array(
            [[tidx[t] for t in clique_triangles(cl)] for cl in cliques], np.intp
        ).reshape(-1, 4)
        of_tri: list[list[int]] = [[] for _ in self.tris]
        of_edge: list[list[int]] = [[] for _ in keys]
        for ci in range(c):
            for t in self.clique_tris[ci].tolist():
                of_tri[t].append(ci)
            for e in self.clique_edges[ci].tolist():
                of_edge[e].append(ci)
        self.tri_cliques = _padded(of_tri, c)
        self.edge_cliques = _padded(of_edge, c)

    def block_rows(self) -> int:
        """Worlds per block, so that one block's temporaries stay bounded."""
        per_world = 10 * len(self.clique_tris) + 2 * self.tri_cliques.size + self.edge_cliques.size
        return max(1, _BLOCK_ELEMS // per_world)


def _with_sentinel(a: np.ndarray, fill) -> np.ndarray:
    """(n × C) per-clique values plus a column C holding ``fill``."""
    return np.concatenate([a, np.full((len(a), 1), fill, a.dtype)], axis=1)


def _g_counts(cand: _Candidate, mask: np.ndarray, k: int) -> np.ndarray:
    """Per triangle, the number of worlds (rows of ``mask``) that are a
    deterministic k-nucleus (Definition 3) and contain it."""
    present = mask[:, cand.tri_edges].all(axis=2)
    live = mask[:, cand.clique_edges].all(axis=2)
    ext = _with_sentinel(live, False)
    ok = live.any(axis=1)
    ok &= ~(mask & ~ext[:, cand.edge_cliques].any(axis=2)).any(axis=1)  # edges covered
    ok &= ~(present & (ext[:, cand.tri_cliques].sum(axis=2) < k)).any(axis=1)  # support ≥ k
    # s-connectivity of the worlds still accepted: min-label propagation
    # over the live cliques; a present triangle in no live clique keeps its
    # own label
    rows = np.flatnonzero(ok)
    pres, lv, t = present[rows], live[rows], len(cand.tris)
    label = np.where(pres, np.arange(t), t)
    while True:
        via = _with_sentinel(np.where(lv, label[:, cand.clique_tris].min(axis=2), t), t)
        nxt = np.minimum(label, via[:, cand.tri_cliques].min(axis=2))
        if np.array_equal(nxt, label):
            break
        label = nxt
    ok[rows] = ~(pres & (label != label.min(axis=1, keepdims=True))).any(axis=1)
    return (present & ok[:, None]).sum(axis=0)


def _w_counts(cand: _Candidate, mask: np.ndarray, k: int) -> np.ndarray:
    """Per triangle, the number of worlds in which its deterministic ν is
    ≥ k: the level-k triangle peel (drop triangles in < k live cliques,
    kill their cliques) run to a fixpoint in all worlds at once."""
    alive = mask[:, cand.tri_edges].all(axis=2)
    live = mask[:, cand.clique_edges].all(axis=2)
    while True:
        drop = alive & (_with_sentinel(live, False)[:, cand.tri_cliques].sum(axis=2) < k)
        if not drop.any():
            break
        alive &= ~drop
        live &= alive[:, cand.clique_tris].all(axis=2)
    return alive.sum(axis=0)


def mc_triangle_counts(
    spark: SparkSession,
    candidates: dict[int, dict],
    k: int,
    n: int,
    seed: int,
    mode: str,
) -> dict[int, dict[tuple, int]]:
    """For each candidate edge set, count over n sampled worlds how many
    worlds satisfy the μ-indicator for each triangle (Definition 4).

    ``candidates`` maps id -> {(u,v): p}; the result maps id ->
    {(a,b,c): count} over every triangle of the candidate, keyed by sorted
    vertex triple, zeros included. mode "g": world
    must be a deterministic k-nucleus and contain the triangle. mode "w":
    the triangle's deterministic ν in the world must be ≥ k. World s of
    candidate c keeps the edges (sorted) of ``world_mask(p, (seed, c, s))``.
    ``spark`` is unused: the worlds are evaluated on the driver.
    """
    kernel = {"g": _g_counts, "w": _w_counts}.get(mode)
    if kernel is None:
        raise ValueError(f"unknown mode {mode!r}")
    out: dict[int, dict[tuple, int]] = {}
    for cid, edges in candidates.items():
        keys = sorted(edges)
        cand = _Candidate(keys)
        counts = np.zeros(len(cand.tris), np.int64)
        if cand.tris:
            p = np.array([edges[e] for e in keys], dtype=float)
            mask = np.array([world_mask(p, (seed, int(cid), s)) for s in range(n)], bool)
            step = cand.block_rows()
            for lo in range(0, n, step):
                counts += kernel(cand, mask[lo : lo + step], k)
        out[cid] = dict(zip(cand.tris, counts.tolist()))
    return out


def grow_candidates(decomp: LocalDecomposition, k: int) -> list[dict]:
    """Algorithm 2 lines 5–8: for every triangle of C_k, grow the closure of
    4-cliques until every triangle it brought in has ≥ k cliques inside,
    then dedupe. Returns candidate edge dicts {(u,v): p}, numbered by the
    first seed (nucleus by nucleus, tids ascending) that grows each."""
    nuclei = ell_nuclei(decomp, k)
    cands: dict[frozenset, dict] = {}
    for nucleus in nuclei:
        # the cliques of this component and their four tids each
        keep = np.zeros(len(decomp.nu), bool)
        keep[list(nucleus.tids)] = True
        cids = cliques_within(decomp, keep)
        four = decomp.clique_tri[cids].tolist()
        tri_cliques: dict[int, list[int]] = defaultdict(list)
        for idx, tids in enumerate(four):
            for t in tids:
                tri_cliques[t].append(idx)
        for seed_tid in sorted(nucleus.tids):
            chosen = set(tri_cliques[seed_tid])
            while True:
                member_counts: dict[int, int] = defaultdict(int)
                for ci in chosen:
                    for t in four[ci]:
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
            cands[key] = union_subgraph(decomp, k, cids[sorted(chosen)]).edges
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
    """All accepted g-(k,θ)-nuclei for one k (Algorithm 2). ``spark`` is
    unused: candidate growth and the Monte-Carlo check run on the driver."""
    n = n if n is not None else max(200, hoeffding_samples(eps, delta))
    theta = decomp.theta
    cand_edges = {i: e for i, e in enumerate(grow_candidates(decomp, k))}
    counts = mc_triangle_counts(spark, cand_edges, k, n, seed, "g")
    accepted: list[NucleusSubgraph] = []
    for cid, edges in cand_edges.items():
        got = counts[cid]
        if got and all(c / n >= theta for c in got.values()):
            tids = set(decomp.tids_of(list(got)).tolist())
            accepted.append(NucleusSubgraph(k, {v for e in edges for v in e}, dict(edges), tids))
    return maximal(accepted)


def maximal(subgraphs: list[NucleusSubgraph]) -> list[NucleusSubgraph]:
    """The subgraphs whose edge set is a strict subset of no other one's, in
    input order. One pass, largest first: a strict subset of a dropped
    subgraph is a strict subset of the kept one that dropped it."""
    order = sorted(range(len(subgraphs)), key=lambda i: -len(subgraphs[i].edges))
    kept: list[int] = []
    for i in order:
        edges = subgraphs[i].edges.keys()
        if not any(edges < subgraphs[j].edges.keys() for j in kept):
            kept.append(i)
    return [subgraphs[i] for i in sorted(kept)]


def g_decomposition(
    spark: SparkSession, decomp: LocalDecomposition, **kw
) -> dict[int, list[NucleusSubgraph]]:
    """g-(k,θ)-nuclei for every k = 1..k_max (k_max from the local pass)."""
    return {k: g_nuclei(spark, decomp, k, **kw) for k in range(1, decomp.k_max + 1)}
