"""Spark graph substrate vs the DuckDB oracle: canonical edges, degrees,
orientation, triangle and 4-clique enumeration, and the driver-built
incidence of ``collect_structures``."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from helpers import CLIQUE_SQL, TRIANGLE_SQL, complete_graph, random_prob_graph
from repro.datasets import analog_pdf
from repro.graph.cliques import four_cliques
from repro.graph.edges import canonical_edges, degrees, oriented
from repro.graph.triangles import triangles
from repro.nucleus.local import collect_structures
from repro.oracle import assert_equivalent


def spark_edges(spark, pdf):
    return spark.createDataFrame(pdf)


def tris_of(spark, pdf):
    return triangles(oriented(spark_edges(spark, pdf)))


def cliques_of(spark, pdf):
    d = oriented(spark_edges(spark, pdf))
    return four_cliques(d, triangles(d))


def incidence_of(spark, pdf):
    """The incidence with each tid's triangle as id-sorted columns a, b, c."""
    tri, _, inc = collect_structures(spark, spark_edges(spark, pdf))
    abc = pd.DataFrame(
        sorted(xyz) for xyz in zip(tri.x.tolist(), tri.y.tolist(), tri.z.tolist())
    )
    return inc.assign(**{col: abc[i].to_numpy()[inc.tid] for i, col in enumerate("abc")})


def sorted_triangles(tri_df):
    """Triangles as id-sorted (a, b, c, p_tri) rows, the TRIANGLE_SQL layout."""
    v = F.sort_array(F.array("x", "y", "z"))
    return tri_df.select(v[0].alias("a"), v[1].alias("b"), v[2].alias("c"), "p_tri")


# --- canonicalization -------------------------------------------------------


def test_canonical_flips_and_dedupes(spark):
    raw = pd.DataFrame(
        [(2, 1, 0.5), (1, 2, 0.8), (3, 3, 0.9), (4, 5, 0.1)],
        columns=["u", "v", "p"],
    )
    got = canonical_edges(spark_edges(spark, raw)).toPandas()
    got = got.sort_values(["u", "v"]).reset_index(drop=True)
    assert got.values.tolist() == [[1, 2, 0.8], [4, 5, 0.1]]


def test_degrees_vs_duckdb(spark):
    pdf = random_prob_graph(30, 0.3, seed=1)
    e = canonical_edges(spark_edges(spark, pdf))
    deg = degrees(e).withColumnRenamed("deg", "d")
    assert_equivalent(
        deg,
        "SELECT vid, count(*)::BIGINT AS d FROM "
        "(SELECT u AS vid FROM e UNION ALL SELECT v FROM e) GROUP BY vid",
        e=pdf,
    )


@pytest.mark.parametrize("bad", [None, float("nan"), 0.0, -0.5, 1.5])
def test_canonical_rejects_bad_probability(spark, bad):
    raw = spark.createDataFrame([(0, 1, 0.5), (1, 2, bad), (0, 2, 1.0)], "u long, v long, p double")
    with pytest.raises(Exception, match=r"edge \(1, 2\) has probability .*p must be in \(0, 1\]"):
        canonical_edges(raw).collect()


def test_oriented_preserves_edges_and_orients_by_degree_then_id(spark):
    pdf = random_prob_graph(25, 0.3, seed=3)
    d = oriented(spark_edges(spark, pdf)).toPandas()
    deg = pd.concat([pdf.u, pdf.v]).value_counts()
    assert sorted(zip(d[["src", "dst"]].min(axis=1), d[["src", "dst"]].max(axis=1))) == sorted(
        zip(pdf.u, pdf.v)
    )
    assert (d.dd == deg[d.dst].to_numpy()).all()
    assert all((deg[s], s) < (deg[t], t) for s, t in zip(d.src, d.dst))


def test_enumeration_plan_has_no_window(spark):
    """Orientation compares (degree, id) pairs; no global rank window."""
    pdf = random_prob_graph(20, 0.4, seed=1)
    for df in (tris_of(spark, pdf), cliques_of(spark, pdf)):
        plan = df._jdf.queryExecution().executedPlan().toString()
        assert "Window" not in plan


# --- triangles vs DuckDB ----------------------------------------------------


@pytest.mark.parametrize("seed,n,ps", [(1, 20, 0.4), (2, 30, 0.3), (3, 40, 0.2), (4, 15, 0.7)])
def test_triangles_match_duckdb(spark, seed, n, ps):
    pdf = random_prob_graph(n, ps, seed=seed)
    t = sorted_triangles(tris_of(spark, pdf))
    assert_equivalent(t, TRIANGLE_SQL, e=pdf)


def test_oracle_detects_mismatch(spark):
    """The oracle rejects a triangle table with one row missing."""
    pdf = random_prob_graph(20, 0.4, seed=1)
    t = sorted_triangles(tris_of(spark, pdf))
    wrong = t.exceptAll(t.orderBy("a", "b", "c").limit(1))
    assert wrong.count() == t.count() - 1
    with pytest.raises(AssertionError):
        assert_equivalent(wrong, TRIANGLE_SQL, e=pdf)


def test_triangles_k6_count(spark):
    assert tris_of(spark, complete_graph(6, 0.5)).count() == 20


def test_triangles_on_analog_matches_duckdb(spark):
    pdf = analog_pdf("krogan", sf=0.05)
    t = sorted_triangles(tris_of(spark, pdf))
    assert_equivalent(t, TRIANGLE_SQL, e=pdf)


def test_triangle_p_tri_is_product(spark):
    pdf = pd.DataFrame([(0, 1, 0.5), (0, 2, 0.4), (1, 2, 0.3)], columns=["u", "v", "p"])
    t = tris_of(spark, pdf).collect()
    assert len(t) == 1
    assert t[0].p_tri == pytest.approx(0.5 * 0.4 * 0.3)


# --- 4-cliques vs DuckDB ----------------------------------------------------


@pytest.mark.parametrize("seed,n,ps", [(5, 15, 0.6), (6, 20, 0.5), (7, 25, 0.4)])
def test_cliques_match_duckdb(spark, seed, n, ps):
    pdf = random_prob_graph(n, ps, seed=seed)
    c = cliques_of(spark, pdf).select(
        F.sort_array(F.array("x", "y", "z", "w")).getItem(0).alias("a"),
        F.sort_array(F.array("x", "y", "z", "w")).getItem(1).alias("b"),
        F.sort_array(F.array("x", "y", "z", "w")).getItem(2).alias("c"),
        F.sort_array(F.array("x", "y", "z", "w")).getItem(3).alias("d"),
    )
    assert_equivalent(c, CLIQUE_SQL, e=pdf)


def test_cliques_k6_count(spark):
    assert cliques_of(spark, complete_graph(6, 0.5)).count() == 15


def test_clique_probs_cover_all_six_edges(spark):
    pdf = pd.DataFrame(
        [(0, 1, 0.11), (0, 2, 0.13), (0, 3, 0.17), (1, 2, 0.19), (1, 3, 0.23), (2, 3, 0.29)],
        columns=["u", "v", "p"],
    )
    rows = cliques_of(spark, pdf).collect()
    assert len(rows) == 1
    r = rows[0]
    got = sorted([r.p_xy, r.p_xz, r.p_yz, r.p_xw, r.p_yw, r.p_zw])
    assert got == pytest.approx(sorted(pdf.p))


# --- incidence (driver-built by collect_structures) -------------------------


def test_incidence_four_rows_per_clique(spark):
    _, cliques, inc = collect_structures(spark, spark_edges(spark, complete_graph(6, 0.5)))
    assert len(cliques) == 15
    assert len(inc) == 4 * len(cliques)
    assert set(inc.groupby("cid").size()) == {4}


def test_incidence_ext_prob_k4(spark):
    """K4 with distinct probs: each triangle's ext prob is the product of
    the three edges touching the left-out vertex."""
    pdf = pd.DataFrame(
        [(0, 1, 0.11), (0, 2, 0.13), (0, 3, 0.17), (1, 2, 0.19), (1, 3, 0.23), (2, 3, 0.29)],
        columns=["u", "v", "p"],
    )
    p = {(u, v): pr for u, v, pr in pdf.itertuples(index=False)}
    inc = incidence_of(spark, pdf)
    expect = {}
    for tri, out in [((0, 1, 2), 3), ((0, 1, 3), 2), ((0, 2, 3), 1), ((1, 2, 3), 0)]:
        expect[tri] = 1.0
        for x in tri:
            expect[tri] *= p[tuple(sorted((x, out)))]
    got = dict(zip(zip(inc.a, inc.b, inc.c), inc.ext_prob))
    assert got == pytest.approx(expect)


def test_triangle_support_counts_match_duckdb(spark):
    """#cliques per triangle (the c_△ of the paper) vs a DuckDB aggregate."""
    pdf = random_prob_graph(18, 0.6, seed=9)
    sup = incidence_of(spark, pdf).groupby(["a", "b", "c"]).size().reset_index(name="n")
    sql = f"""
    WITH c4 AS ({CLIQUE_SQL})
    , inc AS (
      SELECT a, b, c FROM c4
      UNION ALL SELECT a, b, d FROM c4
      UNION ALL SELECT a, c, d FROM c4
      UNION ALL SELECT b, c, d FROM c4
    )
    SELECT a, b, c, count(*)::BIGINT AS n FROM inc GROUP BY a, b, c
    """
    assert_equivalent(spark.createDataFrame(sup), sql, e=pdf)
