"""PD / PCC metrics (Eq. 19–20): pandas vs the DuckDB oracle."""
import duckdb
import pandas as pd
import pytest
from pyspark.sql import functions as F

from helpers import TRIANGLE_SQL, complete_graph, random_prob_graph
from repro.nucleus.metrics import pd_pcc_pandas, subgraph_stats
from repro.oracle import assert_equivalent


def test_pd_complete_graph_prob_one():
    pd_, pcc = pd_pcc_pandas(complete_graph(6, 1.0))
    assert pd_ == pytest.approx(1.0)
    assert pcc == pytest.approx(1.0)


def test_pd_scales_with_probability():
    pd_, pcc = pd_pcc_pandas(complete_graph(6, 0.4))
    assert pd_ == pytest.approx(0.4)
    assert pcc == pytest.approx(0.4 ** 3 / 0.4 ** 2)


def test_pcc_star_is_zero():
    star = pd.DataFrame([(0, i, 0.9) for i in range(1, 6)], columns=["u", "v", "p"])
    pd_, pcc = pd_pcc_pandas(star)
    assert pcc == 0.0


def test_empty_edges():
    assert pd_pcc_pandas(pd.DataFrame(columns=["u", "v", "p"])) == (0.0, 0.0)


#: PD and PCC of the edge table e, written directly from Eq. 19–20.
PD_PCC_SQL = f"""
WITH ends AS (SELECT u AS c, p FROM e UNION ALL SELECT v AS c, p FROM e),
nv AS (SELECT count(DISTINCT c) AS n FROM ends),
wedges AS (
  SELECT sum(w) AS w FROM (
    SELECT (sum(p) * sum(p) - sum(p * p)) / 2 AS w FROM ends GROUP BY c
  )
)
SELECT (SELECT sum(p) FROM e) / (n * (n - 1) / 2.0) AS pd,
       3 * (SELECT sum(p_tri) FROM ({TRIANGLE_SQL})) / w AS pcc
FROM nv, wedges
"""


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pandas_matches_duckdb(seed):
    pdf = random_prob_graph(25, 0.4, seed=seed)
    con = duckdb.connect()
    con.register("e", pdf)
    want_pd, want_pcc = con.execute(PD_PCC_SQL).fetchone()
    con.close()
    got_pd, got_pcc = pd_pcc_pandas(pdf)
    assert got_pd == pytest.approx(want_pd)
    assert got_pcc == pytest.approx(want_pcc)


def test_pd_sum_vs_duckdb(spark):
    """The Σp(e) numerator via Spark agg vs DuckDB SQL (oracle check)."""
    pdf = random_prob_graph(30, 0.3, seed=5)
    sdf = spark.createDataFrame(pdf).agg(F.sum("p").alias("s"))
    assert_equivalent(sdf, "SELECT sum(p) AS s FROM e", e=pdf)


def test_pcc_numerator_vs_duckdb(spark):
    """3·Σ_△ p·p·p numerator via the distributed triangle enumeration vs
    DuckDB self-joins."""
    from helpers import TRIANGLE_SQL
    from repro.graph.edges import oriented
    from repro.graph.triangles import triangles

    pdf = random_prob_graph(25, 0.45, seed=6)
    num = triangles(oriented(spark.createDataFrame(pdf))).agg(
        F.round(F.sum("p_tri"), 6).alias("s")
    )
    assert_equivalent(
        num, f"SELECT round(sum(p_tri), 6) AS s FROM ({TRIANGLE_SQL})", e=pdf
    )


def test_subgraph_stats_shape():
    s = subgraph_stats(complete_graph(5, 0.5))
    assert s["V"] == 5 and s["E"] == 10
    assert 0 < s["PD"] <= 1 and 0 < s["PCC"] <= 1
