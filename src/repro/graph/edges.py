"""Canonical probabilistic edge DataFrames and degree-based orientation.

All downstream enumeration assumes the canonical form produced by
:func:`canonical_edges`: undirected edges stored once as (u, v, p) with
u < v (vertex ids), 0 < p <= 1, no duplicates, no self-loops.

Triangle / 4-clique enumeration uses the standard degree orientation: each
undirected edge is directed from the endpoint of smaller (degree, id) to the
larger. Orienting by a total order bounded by degeneracy keeps the wedge join
output near-linear in practice (a hub of degree d contributes O(d^2) wedges
undirected but only pairs among its *higher-ordered* neighbours when
oriented). The order is compared pairwise, as ``(deg, id)`` structs, so no
global sort or rank numbering is needed.

The driver-side baselines read pandas edge frames through
:func:`edge_arrays`, which checks the same form and repairs nothing.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def canonical_edges(df: DataFrame) -> DataFrame:
    """Normalize an edge DataFrame with columns (u, v, p) to canonical form.

    Self-loops are dropped and duplicate edges keep their largest p. A p
    that is null, NaN, ≤ 0 or > 1 fails the job that reads the edges, with
    the offending edge in the message.
    """
    p = F.col("p").cast("double")
    bad = p.isNull() | F.isnan(p) | (p <= 0) | (p > 1)
    checked = F.when(
        bad,
        F.raise_error(
            F.format_string(
                "edge (%s, %s) has probability %s; p must be in (0, 1]",
                F.col("u").cast("string"),
                F.col("v").cast("string"),
                p.cast("string"),
            )
        ),
    ).otherwise(p)
    return (
        df.select(
            F.least("u", "v").alias("u"),
            F.greatest("u", "v").alias("v"),
            checked.alias("p"),
        )
        .filter(F.col("u") != F.col("v"))
        .groupBy("u", "v")
        .agg(F.max("p").alias("p"))
    )


def edge_arrays(edges: pd.DataFrame) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The u, v and p columns of a pandas edge frame, each edge listed once
    in either orientation. A p that is NaN, ≤ 0 or > 1, a self-loop, or an
    edge listed twice raises ValueError naming the edge."""
    u, v = edges.u.to_numpy(), edges.v.to_numpy()
    p = edges.p.to_numpy(np.float64)
    pair = pd.DataFrame({"lo": np.minimum(u, v), "hi": np.maximum(u, v)})
    for bad, why in (
        (~((p > 0) & (p <= 1)), "has probability {p}; p must be in (0, 1]"),
        (u == v, "is a self-loop"),
        (pair.duplicated().to_numpy(), "is listed twice"),
    ):
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"edge ({u[i]}, {v[i]}) " + why.format(p=p[i]))
    return u, v, p


def degrees(edges: DataFrame) -> DataFrame:
    """Vertex degrees (vid, deg) of a canonical edge DataFrame."""
    ends = edges.select(F.col("u").alias("vid")).unionAll(
        edges.select(F.col("v").alias("vid"))
    )
    return ends.groupBy("vid").agg(F.count("*").alias("deg"))


def oriented(edge_df: DataFrame) -> DataFrame:
    """Directed edges (src, dst, p, dd) of a (u, v, p) edge DataFrame: each
    canonical edge once, from the endpoint of smaller (degree, id) to the
    larger, with the degree dd of dst (the triangle wedge filter orders two
    out-neighbours by it)."""
    edges = canonical_edges(edge_df)
    deg = degrees(edges)
    e = edges.join(
        deg.select(F.col("vid").alias("u"), F.col("deg").alias("du")), "u"
    ).join(deg.select(F.col("vid").alias("v"), F.col("deg").alias("dv")), "v")
    fwd = F.struct("du", "u") < F.struct("dv", "v")
    return e.select(
        F.when(fwd, F.col("u")).otherwise(F.col("v")).alias("src"),
        F.when(fwd, F.col("v")).otherwise(F.col("u")).alias("dst"),
        "p",
        F.when(fwd, F.col("dv")).otherwise(F.col("du")).alias("dd"),
    )
