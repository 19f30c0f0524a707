"""Distributed triangle enumeration over oriented probabilistic edges.

Each triangle is produced exactly once as (x, y, z) in (degree, id) order:
the wedge join pairs two out-edges of the lowest vertex x, and the closing
join checks the oriented edge y→z. The row carries the three edge
probabilities and the triangle existence probability
Pr(△) = p_xy · p_xz · p_yz.

The oriented edges are the driver's O(|E|) list
(:func:`repro.graph.edges.orient`), so the edge side of both joins is
broadcast: a hint, which holds whatever ``autoBroadcastJoinThreshold`` the
session sets, and no join shuffles.
"""
from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def triangles(d: DataFrame) -> DataFrame:
    """Enumerate the triangles of an oriented edge DataFrame
    (:data:`repro.graph.edges.ORIENTED`).

    Returns columns: x, y, z (vertex ids in (degree, id) order),
    p_xy, p_xz, p_yz, p_tri.
    """
    e1 = d.select(
        F.col("src").alias("x"),
        F.col("dst").alias("y"),
        F.col("p").alias("p_xy"),
        F.col("dd").alias("dy"),
    )
    e2 = d.select(
        F.col("src").alias("x"),
        F.col("dst").alias("z"),
        F.col("p").alias("p_xz"),
        F.col("dd").alias("dz"),
    )
    wedges = e1.join(F.broadcast(e2), "x").filter(F.struct("dy", "y") < F.struct("dz", "z"))
    closing = d.select(
        F.col("src").alias("y"),
        F.col("dst").alias("z"),
        F.col("p").alias("p_yz"),
    )
    t = wedges.join(F.broadcast(closing), ["y", "z"])
    return t.select(
        "x",
        "y",
        "z",
        "p_xy",
        "p_xz",
        "p_yz",
        (F.col("p_xy") * F.col("p_xz") * F.col("p_yz")).alias("p_tri"),
    )
