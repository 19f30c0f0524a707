"""Named synthetic analogs of the paper's evaluation datasets.

The paper (Table 1) evaluates on krogan, dblp, flickr, pokec, biomine,
ljournal-2008, and (in §7.2, inline) enwiki-2013. None of these ship in this
offline container, so each gets a scaled-down synthetic analog generated by
:func:`repro.synth_data.probabilistic_graph_pdf` preserving the knobs the
algorithms exercise (see DESIGN.md §4): triangle-count *ordering* across
datasets, average edge probability, probability distribution family, and —
for the enwiki analog — a handful of large communities that drive c_triangle
(per-triangle 4-clique support) up so exact DP visibly lags AP.

``sf`` scales the number of communities, background edges, and vertex count;
``sf=1.0`` is the default single-machine scale (seconds-to-minutes per
decomposition), tests use ``sf<=0.2``.
"""
from dataclasses import dataclass, field

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.synth_data import probabilistic_graph_pdf


@dataclass(frozen=True)
class AnalogSpec:
    """Generator parameters for one dataset analog at ``sf=1.0``."""

    n_vertices: int
    n_communities: int
    size_range: tuple[int, int]
    bg_edges: int
    dist: str
    dist_mean: float | None = None
    hubs: tuple[int, ...] = ()
    big_communities: tuple[int, ...] = ()  # extra large planted communities
    books: tuple[int, ...] = ()  # triangle books: huge-c_△ structures
    seed: int = 7


#: Analog registry, ordered (like paper Table 1) by expected triangle count.
ANALOGS: dict[str, AnalogSpec] = {
    "krogan": AnalogSpec(2700, 14, (6, 12), 4500, "beta", 0.68, (120,)),
    "dblp": AnalogSpec(6000, 45, (7, 14), 14000, "beta", 0.26, (300,)),
    "flickr": AnalogSpec(3200, 40, (10, 18), 18000, "beta", 0.13, (400,)),
    "pokec": AnalogSpec(8000, 55, (10, 20), 35000, "uniform", None, (500, 500)),
    "biomine": AnalogSpec(10000, 60, (10, 22), 45000, "beta", 0.27, (800, 400)),
    "ljournal": AnalogSpec(
        14000, 75, (12, 24), 70000, "uniform", None, (600, 600), books=(400,)
    ),
    "enwiki": AnalogSpec(
        18000, 80, (12, 28), 100000, "uniform", None, (700, 700),
        big_communities=(44, 48),
        books=(2400, 1600, 1000),
    ),
}

#: Paper Table 1 statistics for side-by-side reporting in EXPERIMENTS.md.
PAPER_TABLE1 = {
    "krogan": dict(V=2708, E=7123, d_max=141, p_avg=0.68, triangles=6968),
    "dblp": dict(V=684911, E=2284991, d_max=611, p_avg=0.26, triangles=4582169),
    "flickr": dict(V=24125, E=300836, d_max=546, p_avg=0.13, triangles=8857038),
    "pokec": dict(V=1632803, E=22301964, d_max=14854, p_avg=0.50, triangles=32557458),
    "biomine": dict(V=1008201, E=6722503, d_max=139624, p_avg=0.27, triangles=93716868),
    "ljournal": dict(V=5363260, E=49514271, d_max=19432, p_avg=0.50, triangles=411155444),
    "enwiki": dict(V=4206785, E=92000000, d_max=None, p_avg=0.50, triangles=1000000000),
}


def analog_pdf(
    name: str, *, sf: float = 1.0, dist: str | None = None, seed: int | None = None
) -> pd.DataFrame:
    """Pandas edge list (u, v, p) for a named analog at scale factor ``sf``.

    ``dist`` overrides the probability distribution (used by Table 3's
    pokec_Normal / pokec_Pareto variants); ``seed`` overrides the default.
    """
    spec = ANALOGS[name]
    n_comm = max(2, round(spec.n_communities * sf))
    lo, hi = spec.size_range
    # Deterministic size cycle in [lo, hi] so sf changes only the count.
    sizes = [lo + (i * 5) % (hi - lo + 1) for i in range(n_comm)]
    sizes += [s for s in spec.big_communities if sf >= 0.5]
    n_vertices = max(sum(sizes) + 10, round(spec.n_vertices * sf))
    return probabilistic_graph_pdf(
        n_vertices=n_vertices,
        communities=sizes,
        density=0.95,
        bg_edges=max(10, round(spec.bg_edges * sf)),
        hubs=[max(5, round(h * min(1.0, sf * 2))) for h in spec.hubs],
        books=[max(20, round(b * sf)) for b in spec.books],
        dist=dist or spec.dist,
        dist_mean=spec.dist_mean,
        seed=spec.seed if seed is None else seed,
    )


def analog(
    spark: SparkSession,
    name: str,
    *,
    sf: float = 1.0,
    dist: str | None = None,
    seed: int | None = None,
) -> DataFrame:
    """Spark edge DataFrame (u, v, p) for a named analog."""
    return spark.createDataFrame(analog_pdf(name, sf=sf, dist=dist, seed=seed))
