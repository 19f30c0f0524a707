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

A triangle's id (tid) is its row number in the sorted ``tri_pdf``, as a
clique's cid is its row number in ``clique_pdf``; every layer after the
collect indexes arrays by them. The (C × 4) array ``clique_tri`` holds the
tids of each clique's four triangles.

Triangles with Pr(△) < θ get ν = −1: no subgraph containing them can satisfy
Definition 5 even at k = 0, so they join no nucleus and their cliques are
dead from the start.
"""
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.graph.cliques import four_cliques
from repro.graph.connectivity import union_find
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
    extract ℓ-(k,θ)-nuclei and to seed the FG/WG algorithms. ``nu`` and
    ``kappa0`` are int arrays indexed by tid."""

    theta: float
    nu: np.ndarray
    kappa0: np.ndarray
    tri_pdf: pd.DataFrame  # tid, x, y, z, p_tri
    clique_pdf: pd.DataFrame  # cid, x, y, z, w, 6 edge probs
    clique_tri: np.ndarray  # (C × 4) tids of each clique's triangles
    methods: Counter = field(default_factory=Counter)

    @property
    def k_max(self) -> int:
        return int(self.nu.max(initial=-1))

    def tids_of(self, triples) -> np.ndarray:
        """The tids of sorted vertex triples, each a triangle of the graph."""
        xyz = np.sort(self.tri_pdf[["x", "y", "z"]].to_numpy(np.int64), axis=1)
        q = np.asarray(triples, np.int64).reshape(-1, 3)
        return pd.MultiIndex.from_arrays(xyz.T).get_indexer(pd.MultiIndex.from_arrays(q.T))


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
    built on it) does not depend on Spark's partitioning. ``tid`` and ``cid``
    are the row numbers."""
    d = oriented(edge_df)
    tri_df = triangles(d)
    tri_pdf = (
        tri_df.select("x", "y", "z", "p_tri")
        .toPandas()
        .sort_values(["x", "y", "z"], ignore_index=True)
    )
    tri_pdf.insert(0, "tid", np.arange(len(tri_pdf), dtype=np.int64))
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
    A triangle's tid is its row in ``tri_pdf``. The rows come in four blocks
    of C, one per triangle of :data:`_CLIQUE_TRIANGLES`, each in cid order,
    so the tid column reshaped to (4 × C) is the transposed ``clique_tri``."""
    p = {frozenset((a, b)): clique_pdf[col].to_numpy() for a, b, col in _CLIQUE_EDGE_COLS}
    rows = pd.MultiIndex.from_frame(tri_pdf[["x", "y", "z"]])
    cid = clique_pdf.cid.to_numpy()
    parts = []
    for tri in _CLIQUE_TRIANGLES:
        (out,) = set("xyzw") - set(tri)
        a, b, c = (p[frozenset((v, out))] for v in tri)
        tid = rows.get_indexer(pd.MultiIndex.from_arrays([clique_pdf[v] for v in tri]))
        parts.append(pd.DataFrame({"cid": cid, "tid": tid, "ext_prob": a * b * c}))
    return pd.concat(parts, ignore_index=True)


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
    clique_tri = inc_pdf.tid.to_numpy().reshape(4, -1).T
    nu, kappa0, methods = _peel_driver(tri_pdf, clique_tri, inc_pdf, theta, scorer, deadline)
    return LocalDecomposition(theta, nu, kappa0, tri_pdf, clique_pdf, clique_tri, methods)


# ---------------------------------------------------------------------------
# peeling
# ---------------------------------------------------------------------------


def _peel_driver(tri_pdf, clique_tri, inc_pdf, theta, scorer, deadline: float | None = None):
    score = make_scorer(scorer)
    methods: Counter = Counter()
    p_tri = tri_pdf.p_tri.to_numpy()
    alive = p_tri >= theta - EPS
    nu = np.full(len(p_tri), -1, np.int64)

    def check_deadline():
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError("local decomposition exceeded its wall-clock budget")

    # a clique is alive only while all four triangles are alive
    clique_alive = alive[clique_tri].all(axis=1)
    # each triangle's cliques and Pr(E_i) in inc_pdf row order, so the scorer
    # always sees a triangle's surviving Pr(E_i) in the same order
    tid = inc_pdf.tid.to_numpy()
    order = np.argsort(tid, kind="stable")
    bounds = np.cumsum(np.bincount(tid, minlength=len(p_tri)))[:-1]
    tri_cids = np.split(inc_pdf.cid.to_numpy()[order], bounds)
    tri_exts = np.split(inc_pdf.ext_prob.to_numpy()[order], bounds)

    def rescore(t):
        k, m = score(p_tri[t], tri_exts[t][clique_alive[tri_cids[t]]], theta)
        methods[m] += 1
        return k

    kappa = nu.copy()  # θ-filtered triangles: κ₀ = −1
    for i, t in enumerate(np.flatnonzero(alive).tolist()):
        if i % 4096 == 0:
            check_deadline()
        kappa[t] = rescore(t)
    kappa0 = kappa.copy()
    level = 0
    while alive.any():
        check_deadline()
        level = max(level, int(kappa[alive].min()))
        frontier = np.flatnonzero(alive & (kappa <= level))
        while frontier.size:
            check_deadline()
            nu[frontier] = level
            alive[frontier] = False
            dead = np.unique(np.concatenate([tri_cids[t] for t in frontier.tolist()]))
            dead = dead[clique_alive[dead]]
            clique_alive[dead] = False
            affected = np.unique(clique_tri[dead])
            affected = affected[alive[affected]]
            for t in affected.tolist():
                kappa[t] = rescore(t)
            frontier = affected[kappa[affected] <= level]
    return nu, kappa0, methods


# ---------------------------------------------------------------------------
# nuclei extraction
# ---------------------------------------------------------------------------


def cliques_within(decomp: LocalDecomposition, keep: np.ndarray) -> np.ndarray:
    """The cids of the cliques whose four triangles are all kept (``keep``
    is a boolean array over tids), in ``clique_pdf`` row order."""
    return np.flatnonzero(keep[decomp.clique_tri].all(axis=1))


def union_subgraph(decomp: LocalDecomposition, k: int, cids: np.ndarray) -> NucleusSubgraph:
    """The union of the cliques ``cids`` as one subgraph at level ``k``."""
    # ends and probability of each clique's six edges, clique by clique
    u, v, p = (
        np.stack([decomp.clique_pdf[c].to_numpy()[cids] for c in cols], axis=1).ravel()
        for cols in zip(*_CLIQUE_EDGE_COLS)
    )
    edges = zip(np.minimum(u, v).tolist(), np.maximum(u, v).tolist())
    return NucleusSubgraph(
        k,
        set(u.tolist()) | set(v.tolist()),
        dict(zip(edges, p.tolist())),
        set(np.unique(decomp.clique_tri[cids]).tolist()),
    )


def connected_subgraphs(
    decomp: LocalDecomposition, k: int, keep: np.ndarray
) -> list[NucleusSubgraph]:
    """The s-connected unions of the cliques whose triangles are all kept,
    one subgraph per component, in the order of their first clique."""
    cids = cliques_within(decomp, keep)
    four = decomp.clique_tri[cids].tolist()
    rep = union_find(four)
    comp = np.array([rep[t] for t, *_ in four], np.intp)
    _, first = np.unique(comp, return_index=True)
    return [union_subgraph(decomp, k, cids[comp == comp[i]]) for i in np.sort(first)]


def ell_nuclei(decomp: LocalDecomposition, k: int) -> list[NucleusSubgraph]:
    """All ℓ-(k,θ)-nuclei: maximal s-connected unions of 4-cliques whose
    four triangles all have ν ≥ k (the standard level-k extraction)."""
    return connected_subgraphs(decomp, k, decomp.nu >= k)
