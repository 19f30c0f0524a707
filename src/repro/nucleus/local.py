"""ℓ-NuDecomp — local probabilistic nucleus decomposition (Algorithm 1).

Pipeline:

1. **Enumeration (Spark, distributed)** — triangles and 4-cliques of one
   oriented edge plan (`repro.graph`), collected once each into pandas
   frames by :func:`collect_structures`, which then derives the
   triangle↔clique incidence with extension probabilities Pr(E_i) on the
   driver. This is the memory- and shuffle-heavy part.
2. **Initial κ scoring** — for every triangle, κ = max k with
   Pr(△)·Pr[ζ ≥ k] ≥ θ, using either the exact Poisson-binomial DP
   (scorer="dp") or the paper's statistical approximations with DP fallback
   (scorer="ap"), computed in-process from the collected incidence.
3. **Peeling** — level-synchronous batch peeling (the batch analog of
   Algorithm 1's min-peel; Batagelj–Zaveršnik running-max level semantics):
   at each level remove every triangle whose current κ ≤ level (cascading to
   a fixpoint), kill the 4-cliques containing them, rescore only the
   survivors whose clique multiset shrank. ν(△) = removal level.
4. **Extraction** — :func:`ell_nuclei` takes, for one k, the s-connected
   unions of 4-cliques whose four triangles all have ν ≥ k. This module is
   the only one that reads the ``clique_pdf`` row layout: FG and WG select
   cliques and build subgraphs through :func:`cliques_within`,
   :func:`union_subgraph` and :func:`connected_subgraphs`.

Triangles with Pr(△) < θ get ν = −1: no subgraph containing them can satisfy
Definition 5 even at k = 0, so they join no nucleus and their cliques are
dead from the start.
"""
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.det.adjacency import canon, tid_of
from repro.graph.cliques import four_cliques
from repro.graph.connectivity import components_of
from repro.graph.edges import oriented
from repro.graph.triangles import triangles
from repro.prob.approx import kappa_ap
from repro.prob.support import EPS, kappa_dp


def make_scorer(scorer: str):
    """(p_tri, qs, theta) -> (κ, method-name) kernel for "dp" or "ap"."""
    if scorer == "dp":
        return lambda p_tri, qs, theta: (kappa_dp(p_tri, np.asarray(qs), theta), "dp")
    if scorer == "ap":
        return lambda p_tri, qs, theta: kappa_ap(p_tri, np.asarray(qs), theta)
    raise ValueError(f"unknown scorer {scorer!r}")


@dataclass
class LocalDecomposition:
    """Result of ℓ-NuDecomp: ν per triangle plus the structures needed to
    extract ℓ-(k,θ)-nuclei and to seed the FG/WG algorithms."""

    theta: float
    nu: dict[str, int]
    kappa0: dict[str, int]
    tri_pdf: pd.DataFrame  # tid, x, y, z, p_tri
    clique_pdf: pd.DataFrame  # cid, x, y, z, w, 6 edge probs
    methods: Counter = field(default_factory=Counter)

    @property
    def k_max(self) -> int:
        return max(self.nu.values(), default=-1)


@dataclass
class NucleusSubgraph:
    """One extracted μ-(k,θ)-nucleus: vertices, probabilistic edges, tids."""

    k: int
    vertices: set
    edges: dict  # canonical (u, v) -> p
    tids: set

    @property
    def edge_pdf(self) -> pd.DataFrame:
        rows = [(u, v, p) for (u, v), p in sorted(self.edges.items())]
        return pd.DataFrame(rows, columns=["u", "v", "p"])


def collect_structures(spark: SparkSession, edge_df: DataFrame):
    """Run the distributed enumeration once and collect the pandas frames
    (tri_pdf, clique_pdf, inc_pdf) — reusable across θ/scorer sweeps via
    ``local_decomposition(..., structures=...)`` so parameter sweeps time
    only scoring + peeling, not a re-enumeration of the same graph.

    Triangles and cliques are the two Spark collects; both frames are sorted
    by their vertex columns, so row order (and the FG/WG candidate numbering
    built on it) does not depend on Spark's partitioning. ``cid`` is the
    clique's row number."""
    d = oriented(edge_df)
    tri_df = triangles(d)
    tri_pdf = (
        tri_df.select("x", "y", "z", "p_tri")
        .toPandas()
        .sort_values(["x", "y", "z"], ignore_index=True)
    )
    tri_pdf.insert(
        0,
        "tid",
        [tid_of(t) for t in zip(tri_pdf.x.tolist(), tri_pdf.y.tolist(), tri_pdf.z.tolist())],
    )
    clique_pdf = (
        four_cliques(d, tri_df).toPandas().sort_values(list("xyzw"), ignore_index=True)
    )
    clique_pdf.insert(0, "cid", np.arange(len(clique_pdf), dtype=np.int64))
    return tri_pdf, clique_pdf, _incidence(tri_pdf, clique_pdf)


_CLIQUE_EDGE_COLS = [
    ("x", "y", "p_xy"),
    ("x", "z", "p_xz"),
    ("y", "z", "p_yz"),
    ("x", "w", "p_xw"),
    ("y", "w", "p_yw"),
    ("z", "w", "p_zw"),
]

#: the four triangles of a clique row; each is in (degree, id) order, like
#: the (x, y, z) columns of ``tri_pdf``
_CLIQUE_TRIANGLES = (("x", "y", "z"), ("x", "y", "w"), ("x", "z", "w"), ("y", "z", "w"))


def _incidence(tri_pdf: pd.DataFrame, clique_pdf: pd.DataFrame) -> pd.DataFrame:
    """Triangle↔4-clique incidence (cid, tid, ext_prob), four rows per
    clique: ext_prob = Pr(E_i) is the product of the probabilities of the
    three edges joining the left-out vertex to the triangle (paper §5.1).
    The tids are looked up in ``tri_pdf``, so every row shares its
    triangle's key."""
    p = {frozenset((a, b)): clique_pdf[col].to_numpy() for a, b, col in _CLIQUE_EDGE_COLS}
    rows = pd.MultiIndex.from_frame(tri_pdf[["x", "y", "z"]])
    tids = tri_pdf.tid.to_numpy()
    cid = clique_pdf.cid.to_numpy()
    parts = []
    for tri in _CLIQUE_TRIANGLES:
        (out,) = set("xyzw") - set(tri)
        a, b, c = (p[frozenset((v, out))] for v in tri)
        pos = rows.get_indexer(pd.MultiIndex.from_arrays([clique_pdf[v] for v in tri]))
        parts.append(pd.DataFrame({"cid": cid, "tid": tids[pos], "ext_prob": a * b * c}))
    return pd.concat(parts, ignore_index=True)


def _clique_tids(row) -> list[str]:
    """The four canonical triangle keys of a clique row."""
    x, y, z, w = row.x, row.y, row.z, row.w
    return [tid_of(t) for t in ((x, y, z), (x, y, w), (x, z, w), (y, z, w))]


def local_decomposition(
    spark: SparkSession,
    edge_df: DataFrame,
    theta: float,
    *,
    scorer: str = "dp",
    budget_s: float | None = None,
    structures=None,
) -> LocalDecomposition:
    """Full ℓ-NuDecomp of a probabilistic edge DataFrame (u, v, p).

    ``budget_s`` is an optional wall-clock budget, counted from the call:
    when exceeded the peel raises TimeoutError — the mechanism behind the
    paper's "N.P." (not possible) entries for exact DP on its largest
    dataset. ``structures`` (from :func:`collect_structures`) skips
    re-enumeration.
    """
    deadline = None if budget_s is None else time.monotonic() + budget_s
    if structures is None:
        structures = collect_structures(spark, edge_df)
    tri_pdf, clique_pdf, inc_pdf = structures
    nu, kappa0, methods = _peel_driver(tri_pdf, inc_pdf, theta, scorer, deadline)
    return LocalDecomposition(theta, nu, kappa0, tri_pdf, clique_pdf, methods)


# ---------------------------------------------------------------------------
# peeling
# ---------------------------------------------------------------------------


def _peel_driver(tri_pdf, inc_pdf, theta, scorer, deadline: float | None = None):
    score = make_scorer(scorer)
    methods: Counter = Counter()
    p_tri = dict(zip(tri_pdf.tid, tri_pdf.p_tri))
    alive = {t for t, p in p_tri.items() if p >= theta - EPS}
    nu = {t: -1 for t in p_tri if t not in alive}

    def check_deadline():
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError("local decomposition exceeded its wall-clock budget")

    clique_tris: dict[str, list[str]] = {}
    for cid, tid, _ in inc_pdf.itertuples(index=False):
        clique_tris.setdefault(cid, []).append(tid)
    # a clique is alive only while all four triangles are alive
    clique_alive = {
        cid: all(t in alive for t in tids) for cid, tids in clique_tris.items()
    }
    tri_exts: dict[str, dict[str, float]] = {t: {} for t in alive}
    for cid, tid, ext in inc_pdf.itertuples(index=False):
        if clique_alive[cid]:
            tri_exts[tid][cid] = ext
    tri_cliques: dict[str, list[str]] = {t: list(d) for t, d in tri_exts.items()}

    def rescore(t):
        k, m = score(p_tri[t], list(tri_exts[t].values()), theta)
        methods[m] += 1
        return k

    kappa = {}
    for i, t in enumerate(alive):
        if i % 4096 == 0:
            check_deadline()
        kappa[t] = rescore(t)
    kappa0 = dict(kappa)
    kappa0.update({t: -1 for t in nu})  # θ-filtered triangles: κ₀ = −1
    level = 0
    while alive:
        check_deadline()
        m = min(kappa[t] for t in alive)
        level = max(level, m)
        frontier = {t for t in alive if kappa[t] <= level}
        while frontier:
            check_deadline()
            affected: set = set()
            for t in frontier:
                nu[t] = level
                alive.discard(t)
            for t in frontier:
                for cid in tri_cliques[t]:
                    if not clique_alive[cid]:
                        continue
                    clique_alive[cid] = False
                    for t2 in clique_tris[cid]:
                        if t2 in alive:
                            tri_exts[t2].pop(cid, None)
                            affected.add(t2)
            affected &= alive
            for t in affected:
                kappa[t] = rescore(t)
            frontier = {t for t in affected if kappa[t] <= level}
    return nu, kappa0, methods


# ---------------------------------------------------------------------------
# nuclei extraction
# ---------------------------------------------------------------------------


def cliques_within(clique_pdf: pd.DataFrame, tids: set) -> list[tuple]:
    """(row, its four tids) of every clique whose triangles all lie in
    ``tids``, in ``clique_pdf`` row order."""
    out = []
    for row in clique_pdf.itertuples(index=False):
        four = _clique_tids(row)
        if all(t in tids for t in four):
            out.append((row, four))
    return out


def union_subgraph(k: int, cliques: Iterable[tuple]) -> NucleusSubgraph:
    """The union of (row, tids) cliques as one subgraph at level ``k``."""
    sub = NucleusSubgraph(k, set(), {}, set())
    for row, tids in cliques:
        sub.tids.update(tids)
        sub.vertices.update((row.x, row.y, row.z, row.w))
        for a, b, pc in _CLIQUE_EDGE_COLS:
            sub.edges[canon(getattr(row, a), getattr(row, b))] = getattr(row, pc)
    return sub


def connected_subgraphs(clique_pdf: pd.DataFrame, k: int, tids: set) -> list[NucleusSubgraph]:
    """The s-connected unions of the cliques whose triangles all lie in
    ``tids``, one subgraph per component."""
    cliques = cliques_within(clique_pdf, tids)
    comps = components_of(tids for _, tids in cliques)
    label_of = {t: i for i, comp in enumerate(comps) for t in comp}
    members: list[list[tuple]] = [[] for _ in comps]
    for c in cliques:
        members[label_of[c[1][0]]].append(c)
    return [union_subgraph(k, m) for m in members]


def ell_nuclei(decomp: LocalDecomposition, k: int) -> list[NucleusSubgraph]:
    """All ℓ-(k,θ)-nuclei: maximal s-connected unions of 4-cliques whose
    four triangles all have ν ≥ k (the standard level-k extraction)."""
    kept = {t for t, v in decomp.nu.items() if v >= k}
    return connected_subgraphs(decomp.clique_pdf, k, kept)
