"""Distributed 4-clique enumeration.

A 4-clique {a,b,c,d} in (degree, id) order a<b<c<d is found exactly once by
extending its lowest triangle (a,b,c) with the apex d through three
oriented-edge joins (a→d, b→d, c→d), each with the edge side broadcast (the
oriented edges are the driver's O(|E|) list, see
:mod:`repro.graph.triangles`). The triangle↔clique incidence with the
extension probabilities Pr(E_i) is built on the driver from the collected
cliques (:func:`repro.nucleus.local.collect_structures`).
"""
from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def four_cliques(d: DataFrame, tri_df: DataFrame) -> DataFrame:
    """Enumerate 4-cliques from an oriented edge DataFrame ``d``
    (:data:`repro.graph.edges.ORIENTED`) and its triangles ``tri_df``
    (:func:`repro.graph.triangles.triangles` of the same ``d``).

    Returns columns: x, y, z, w (vertex ids in (degree, id) order) and the
    six edge probabilities p_xy, p_xz, p_yz, p_xw, p_yw, p_zw.
    """
    ext = lambda a: F.broadcast(  # noqa: E731 — oriented edge a→w with its prob
        d.select(F.col("src").alias(a), F.col("dst").alias("w"), F.col("p").alias(f"p_{a}w"))
    )
    c = (
        tri_df.join(ext("x"), "x")
        .join(ext("y"), ["y", "w"])
        .join(ext("z"), ["z", "w"])
    )
    return c.select(
        "x",
        "y",
        "z",
        "w",
        "p_xy",
        "p_xz",
        "p_yz",
        "p_xw",
        "p_yw",
        "p_zw",
    )
