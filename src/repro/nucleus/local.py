"""ℓ-NuDecomp — local probabilistic nucleus decomposition (Algorithm 1).

Pipeline:

1. **Enumeration (Spark, distributed)** — :func:`collect_structures`
   collects the edge list once, checks and orients it on the driver
   (`repro.graph.edges`), bounds the triangles and 4-cliques it can yield
   against the driver's memory, and broadcasts it to the triangle and
   4-clique joins (`repro.graph`). Their results are collected once each
   into pandas frames, and the triangle↔clique incidence with extension
   probabilities Pr(E_i) is derived on the driver. This is the memory-heavy
   part.
2. **Initial κ scoring** — for every triangle, κ = max k with
   Pr(△)·Pr[ζ ≥ k] ≥ θ, using either the exact Poisson-binomial DP
   (scorer="dp", `repro.prob.support.kappa_dp`) or the paper's statistical
   approximations with DP fallback (scorer="ap",
   `repro.prob.approx.kappa_ap`). All triangles are scored as one batch:
   their qs are gathered from CSR arrays of the incidence, and each kernel
   runs on zero-padded rows bucketed by width W = 2^⌈log₂ c⌉.
3. **Peeling** — :func:`peel`, level-synchronous batch peeling (the batch
   analog of Algorithm 1's min-peel; Batagelj–Zaveršnik running-max level
   semantics): at each level remove every triangle whose current κ ≤ level
   (cascading to a fixpoint), kill the 4-cliques containing them, and
   rescore the survivors whose clique multiset shrank, one batch per round.
   ν(△) = removal level. :func:`peel` knows elements and support
   structures, not triangles and cliques, so the (k,η)-core (vertices in
   edges, `repro.prob.core`) and the (k,γ)-truss (edges in triangles,
   `repro.prob.truss`) baselines run on it too.
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
from functools import cached_property
from typing import NamedTuple

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.graph.cliques import four_cliques
from repro.graph.connectivity import components
from repro.graph.edges import ORIENTED, orient
from repro.graph.triangles import triangles
from repro.prob.approx import kappa_ap
from repro.prob.support import EPS, Batch, kappa_dp


@dataclass
class LocalDecomposition:
    """Result of ℓ-NuDecomp: ν per triangle plus the structures needed to
    extract ℓ-(k,θ)-nuclei and to seed the FG/WG algorithms. ``nu`` is an
    int array indexed by tid. ``methods`` counts the triangles each scorer
    method scored, ``rounds`` the peel's removal rounds and ``rescored`` the
    triangles it rescored after the initial scoring."""

    theta: float
    nu: np.ndarray
    tri_pdf: pd.DataFrame  # tid, x, y, z, p_tri
    clique_pdf: pd.DataFrame  # cid, x, y, z, w, 6 edge probs
    clique_tri: np.ndarray  # (C × 4) tids of each clique's triangles
    methods: Counter = field(default_factory=Counter)
    rounds: int = 0
    rescored: int = 0

    @property
    def k_max(self) -> int:
        return int(self.nu.max(initial=-1))

    @cached_property
    def _triples(self) -> pd.MultiIndex:
        """Each tid's sorted vertex triple, built at the first
        :meth:`tids_of`: the peels never look a triple up."""
        xyz = np.sort(self.tri_pdf[["x", "y", "z"]].to_numpy(np.int64), axis=1)
        return pd.MultiIndex.from_arrays(xyz.T)

    def tids_of(self, triples) -> np.ndarray:
        """The tids of sorted vertex triples, each a triangle of the graph."""
        q = np.asarray(triples, np.int64).reshape(-1, 3)
        return self._triples.get_indexer(pd.MultiIndex.from_arrays(q.T))

    @cached_property
    def _clique_edges(self) -> tuple[list[np.ndarray], ...]:
        """The u, v and p columns of each clique's six edges, looked up in
        ``clique_pdf`` once: views, so a kept decomposition holds no copy."""
        return tuple([self.clique_pdf[c].to_numpy() for c in s] for s in zip(*_CLIQUE_EDGE_COLS))


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
    are the row numbers.

    The edges are collected first and checked by
    :func:`repro.graph.edges.edge_arrays`: a self-loop, an edge listed twice
    or a p outside (0, 1] raises ValueError naming the edge. So does an
    input whose triangles and 4-cliques may not fit the driver
    (:func:`check_size`), before any of them is enumerated."""
    edges = orient(edge_df.select("u", "v", "p").toPandas())
    check_size(spark, edges.src.to_numpy())
    d = spark.createDataFrame(edges, ORIENTED)
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


#: driver bytes one collected triangle or 4-clique row may hold at once:
#: its Arrow batch, its pandas row and sorted copy, and a clique's four
#: incidence rows
ROW_BYTES = 256


def row_budget(spark: SparkSession) -> int:
    """The triangle and 4-clique rows the driver may collect:
    ``spark.driver.memory`` over :data:`ROW_BYTES`."""
    mem = spark.sparkContext.getConf().get("spark.driver.memory", "1g")
    mb = spark.sparkContext._jvm.org.apache.spark.util.Utils.memoryStringToMb(mem)
    return (mb << 20) // ROW_BYTES


def check_size(spark: SparkSession, src: np.ndarray) -> None:
    """Raise ValueError when the triangles and 4-cliques of an oriented edge
    list may exceed :func:`row_budget`. ``src`` holds each oriented edge's
    source; a vertex with out-degree d⁺ closes at most C(d⁺, 2) triangles
    and C(d⁺, 3) 4-cliques as the lowest vertex, and each triangle and
    4-clique has exactly one lowest vertex."""
    d = np.unique(src, return_counts=True)[1].astype(np.int64)
    tris = int((d * (d - 1) // 2).sum())
    cliques = int((d * (d - 1) * (d - 2) // 6).sum())
    budget = row_budget(spark)
    if tris + cliques > budget:
        raise ValueError(
            f"the graph may have up to {tris:,} triangles and {cliques:,} 4-cliques, "
            f"more than the {budget:,} rows spark.driver.memory allows the driver "
            f"to collect ({ROW_BYTES} bytes a row)"
        )


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
    if scorer == "dp":
        def score(p_rows, batch, theta):
            return kappa_dp(p_rows, batch, theta), Counter(dp=len(batch))
    elif scorer == "ap":
        score = kappa_ap
    else:
        raise ValueError(f"unknown scorer {scorer!r}")
    if structures is None:
        structures = collect_structures(spark, edge_df)
    tri_pdf, clique_pdf, inc_pdf = structures
    clique_tri = inc_pdf.tid.to_numpy().reshape(4, -1).T
    ext = inc_pdf.ext_prob.to_numpy().reshape(4, -1).T
    nu, methods, rounds, rescored = peel(
        tri_pdf.p_tri.to_numpy(), clique_tri, ext, theta, score, deadline
    )
    return LocalDecomposition(
        theta, nu, tri_pdf, clique_pdf, clique_tri, methods, rounds, rescored
    )


# ---------------------------------------------------------------------------
# peeling
# ---------------------------------------------------------------------------


class Peel(NamedTuple):
    """What :func:`peel` returns: ν per element, the scorer's method mix,
    the removal rounds and the elements rescored after the initial
    scoring."""

    nu: np.ndarray
    methods: Counter
    rounds: int
    rescored: int


def peel(p_self, members, ext, theta, score, deadline: float | None = None) -> Peel:
    """Level-synchronous probabilistic peel: ν of every element, the
    scorer's method mix and the peel's counts.

    The elements are 0..N−1, element i present with probability
    ``p_self[i]``. Row j of the (S × s) int array ``members`` lists the s
    elements of support structure j, and ``ext[j, i]`` is Pr(structure j |
    element ``members[j, i]``). The scorer scores a batch of elements at
    once: ``score(p_rows, batch, theta) -> (κ array, method Counter)``, with
    ``batch`` a :class:`~repro.prob.support.Batch` whose row r holds the
    Pr(structure | element) of element r's surviving structures, in
    column-major order of ``members`` (position first, then row). A
    structure dies with the first of its elements to go. Elements with
    p_self < θ get ν = −1, and their structures are dead from the start.

    At each level remove every element whose current κ ≤ level, cascading
    to a fixpoint, kill the structures containing them and rescore the
    survivors that lost one; each removal is one round, and its affected
    survivors are scored as one batch. ν is the removal level.
    ``deadline`` is a ``time.monotonic()`` instant past which the peel
    raises TimeoutError; it is checked after the initial scoring and once
    per round.
    """
    methods: Counter = Counter()
    alive = p_self >= theta - EPS
    nu = np.full(len(p_self), -1, np.int64)

    def check_deadline():
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError("peel exceeded its wall-clock budget")

    # a structure is alive only while all its elements are alive
    struct_alive = alive[members].all(axis=1)
    # CSR over elements: row e of ``incident`` holds element e's
    # Pr(structure | element), and the same slots of ``sids`` the structure
    # ids, column-major, so the scorer always sees an element's surviving qs
    # in the same order
    elem = members.T.ravel()
    order = np.argsort(elem, kind="stable")
    incident = Batch(ext.T.ravel()[order], np.bincount(elem, minlength=len(p_self)))
    sids = np.tile(np.arange(len(members)), members.shape[1])[order]

    def rescore(rows):
        at = incident.positions(rows)
        live = struct_alive[sids[at]]
        owner = np.repeat(np.arange(len(rows)), incident.c[rows])
        batch = Batch(incident.q[at[live]], np.bincount(owner[live], minlength=len(rows)))
        kappa, counts = score(p_self[rows], batch, theta)
        methods.update(counts)
        return kappa

    kappa = nu.copy()  # θ-filtered elements: κ = −1
    rows = np.flatnonzero(alive)
    if rows.size:
        kappa[rows] = rescore(rows)
    check_deadline()
    rounds = rescored = 0
    level = 0
    while alive.any():
        level = max(level, int(kappa[alive].min()))
        frontier = np.flatnonzero(alive & (kappa <= level))
        while frontier.size:
            rounds += 1
            nu[frontier] = level
            alive[frontier] = False
            dead = np.unique(sids[incident.positions(frontier)])
            dead = dead[struct_alive[dead]]
            struct_alive[dead] = False
            affected = np.unique(members[dead])
            affected = affected[alive[affected]]
            if affected.size:
                kappa[affected] = rescore(affected)
                rescored += affected.size
            frontier = affected[kappa[affected] <= level]
            check_deadline()
    return Peel(nu, methods, rounds, rescored)


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
    u, v, p = (np.stack([a[cids] for a in cols], axis=1).ravel() for cols in decomp._clique_edges)
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
    # the cliques' tids renumbered densely, so labelling costs O(cliques)
    tids, four = np.unique(decomp.clique_tri[cids], return_inverse=True)
    four = four.reshape(-1, 4)
    comp = components(four, len(tids))[four[:, 0]]
    return [union_subgraph(decomp, k, part) for part in _grouped(cids, comp)]


def _grouped(items: np.ndarray, comp: np.ndarray) -> list[np.ndarray]:
    """``items`` split by their component label ``comp``, each part in
    input order, the parts in the order of their first item."""
    order = np.argsort(comp, kind="stable")
    parts = np.split(order, np.flatnonzero(np.diff(comp[order])) + 1) if len(order) else []
    return [items[part] for part in sorted(parts, key=lambda part: part[0])]


def vertex_components(
    k: int, u: np.ndarray, v: np.ndarray, p: np.ndarray
) -> list[NucleusSubgraph]:
    """The vertex components of the edges (u, v, p) as subgraphs at level
    ``k``, with no tids, in the order of their first edge; each edge keeps
    its (u, v) key as given."""
    vertices, ends = np.unique(np.stack([u, v], axis=1), return_inverse=True)
    ends = ends.reshape(-1, 2)
    comp = components(ends, len(vertices))[ends[:, 0]]
    return [
        NucleusSubgraph(
            k,
            set(vertices[ends[part]].ravel().tolist()),
            dict(zip(zip(u[part].tolist(), v[part].tolist()), p[part].tolist())),
            set(),
        )
        for part in _grouped(np.arange(len(u)), comp)
    ]


def ell_nuclei(decomp: LocalDecomposition, k: int) -> list[NucleusSubgraph]:
    """All ℓ-(k,θ)-nuclei: maximal s-connected unions of 4-cliques whose
    four triangles all have ν ≥ k (the standard level-k extraction)."""
    return connected_subgraphs(decomp, k, decomp.nu >= k)
