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
and 4-clique index arrays, s-connectivity by `repro.graph.connectivity`. The
mask is one `repro.prob.sampler.world_masks` draw from the candidate's stream
(seed, candidate), so world s is the same whatever n is; candidates (distinct
edge sets) are numbered in the order their seed triangles are visited, by
tid. The kernel counts per sorted vertex triple of the
candidate; FG and WG map those triples to the decomposition's tids with one
lookup per candidate. No Spark job runs here; the ``spark`` parameters of FG
and WG are unused.
"""
from collections import defaultdict

import numpy as np
from pyspark.sql import SparkSession

from repro.det.adjacency import adj_sets, canon, clique_triangles, cliques_of, enumerate_triangles
from repro.graph.connectivity import components
from repro.nucleus.local import (
    LocalDecomposition,
    NucleusSubgraph,
    cliques_within,
    ell_nuclei,
    union_subgraph,
)
from repro.prob.sampler import world_masks

#: array elements one block of worlds may occupy in the indicator kernels;
#: the largest krogan (sf 1.0) candidate, 63 edges and 378 cliques, needs
#: about five blocks at Table 5's n = 2000
_BLOCK_ELEMS = 1 << 22


def _holders(members: np.ndarray, n: int) -> np.ndarray:
    """The inverse of a (C × s) array over elements 0..n−1: row i lists the
    rows of ``members`` that hold element i, ascending, padded with the
    sentinel index C."""
    flat = members.ravel()
    order = np.argsort(flat, kind="stable")
    counts = np.bincount(flat, minlength=n)
    out = np.full((n, max(1, counts.max(initial=0))), len(members), np.intp)
    col = np.arange(flat.size) - np.repeat(np.cumsum(counts) - counts, counts)
    out[flat[order], col] = order // members.shape[1]
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
        self.tri_cliques = _holders(self.clique_tris, len(self.tris))
        self.edge_cliques = _holders(self.clique_edges, len(keys))

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
    # s-connectivity of the worlds still accepted, in one labelling: triangle
    # t of the i-th of them is element i·T + t, merged by that world's live
    # cliques; a world passes when its present triangles share one label
    rows, t = np.flatnonzero(ok), len(cand.tris)
    world, clique = np.nonzero(live[rows])
    label = components(world[:, None] * t + cand.clique_tris[clique], rows.size * t)
    label, pres = label.reshape(-1, t), present[rows]
    low = np.where(pres, label, label.size).min(axis=1, keepdims=True)
    ok[rows] = ~(pres & (label != low)).any(axis=1)
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
    the triangle's deterministic ν in the world must be ≥ k. The worlds of
    candidate c are the rows of ``world_masks(p, n, (seed, c))`` over its
    edges, sorted.
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
            mask = world_masks(p, n, (seed, int(cid)))
            step = cand.block_rows()
            for lo in range(0, n, step):
                counts += kernel(cand, mask[lo : lo + step], k)
        out[cid] = dict(zip(cand.tris, counts.tolist()))
    return out


def _closure(
    seed: int, four: list[list[int]], tri_cliques: dict[int, list[int]], k: int
) -> set[int]:
    """Algorithm 2 lines 6–7 for one seed triangle: the indices (into
    ``four``) of the cliques chosen when, round by round, every triangle in
    fewer than k chosen cliques brings in all of its cliques. The count of
    chosen cliques per triangle is kept as cliques are added, and a triangle
    brings its cliques in once: after that its count cannot grow."""
    chosen: set[int] = set()
    count: dict[int, int] = defaultdict(int)
    done: set[int] = set()
    batch, short = {seed}, set()  # short: in 1..k-1 chosen cliques, not done
    while batch:
        done |= batch
        for t in batch:
            for ci in tri_cliques[t]:
                if ci in chosen:
                    continue
                chosen.add(ci)
                for u in four[ci]:
                    count[u] += 1
                    if u in done:
                        continue
                    if count[u] < k:
                        short.add(u)
                    else:
                        short.discard(u)
        batch, short = short, set()
    return chosen


def grow_candidates(decomp: LocalDecomposition, k: int) -> list[dict]:
    """Algorithm 2 lines 5–8: for every triangle of C_k, grow the closure of
    4-cliques until every triangle it brought in has ≥ k cliques inside,
    then dedupe by edge set: different clique sets can have one union.
    Returns candidate edge dicts {(u,v): p}, numbered by the first seed
    (nucleus by nucleus, tids ascending) that grows each."""
    grown: set[bytes] = set()  # the sorted cids of every closure so far
    cands: dict[frozenset, dict] = {}  # keyed by the candidate's edge set
    for nucleus in ell_nuclei(decomp, k):
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
            # every tid of a nucleus lies in one of its cliques: never empty
            sel = cids[sorted(_closure(seed_tid, four, tri_cliques, k))]
            if sel.tobytes() not in grown:
                grown.add(sel.tobytes())
                edges = union_subgraph(decomp, k, sel).edges
                cands.setdefault(frozenset(edges), edges)
    return list(cands.values())


def g_nuclei(
    spark: SparkSession,
    decomp: LocalDecomposition,
    k: int,
    *,
    n: int = 200,
    seed: int = 0,
) -> list[NucleusSubgraph]:
    """All accepted g-(k,θ)-nuclei for one k (Algorithm 2), each candidate
    checked on ``n`` sampled worlds: the paper runs n = 200, above the 150
    that Lemma 4 asks for at ε = δ = 0.1. ``spark`` is unused: candidate
    growth and the Monte-Carlo check run on the driver."""
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
