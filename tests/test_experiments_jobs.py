"""Experiment harnesses (jobs backends) at tiny scale: schemas + shape."""
import numpy as np
import pytest

from repro.experiments import (
    decomposition_timings,
    table1_stats,
    table2_accuracy,
    table3_distributions,
    table4_cohesiveness,
    table5_sample_size,
    table6_enwiki_runtime,
)


def test_table1_schema_and_paper_ordering(spark):
    df = table1_stats(spark, names=["krogan", "dblp"], sf=0.1)
    assert list(df.columns) == ["graph", "V", "E", "d_max", "p_avg", "triangles"]
    assert (df.V > 0).all() and (df.triangles > 0).all()
    k = df[df.graph == "krogan"].iloc[0]
    assert abs(k.p_avg - 0.68) < 0.2  # p_avg tracks paper Table 1


def test_table2_small(spark):
    df = table2_accuracy(spark, names=["krogan"], sf=0.2)
    assert {"avg_err@0.2", "pct_err@0.2", "avg_err@0.4", "pct_err@0.4"} <= set(df.columns)
    assert (df["avg_err@0.2"] >= 0).all()
    # % of triangles with error is consistent with the avg error magnitude
    assert (df["pct_err@0.2"] <= 100).all()


def test_table3_small(spark):
    df = table3_distributions(spark, sf=0.1, thetas=(0.2,))
    assert list(df.dataset) == ["pokec_Normal", "pokec_Pareto", "pokec_Uniform"]
    assert (df["avg_err@0.2"] <= 0.2).all()


def test_table4_small(spark):
    df = table4_cohesiveness(spark, names=("dblp",), sf=0.15, thetas=(0.1,))
    row = df.iloc[0]
    assert row.k_Nmax <= row.k_Tmax <= row.k_Cmax
    assert row.PD_N >= row.PD_C
    assert row.time_N > 0 and row.time_T > 0 and row.time_C > 0


def test_table5_small(spark):
    df = table5_sample_size(spark, sf=0.3, sizes=((100, 0.1, 0.1), (200, 0.07, 0.1)))
    assert list(df.n) == [100, 200, "avg", "sd"]
    data = df.iloc[:2]
    assert (data.g_PD.astype(float) >= data.w_PD.astype(float) - 0.15).all()


def test_table6_small_and_budget(spark):
    df = table6_enwiki_runtime(spark, sf=0.1, thetas=(0.3,))
    assert df.iloc[0].ap_s > 0 and df.iloc[0].dp_s > 0
    # an absurdly small budget triggers the N.P. mechanism
    df2 = table6_enwiki_runtime(spark, sf=0.1, thetas=(0.3,), budget_s=1e-3)
    assert df2.iloc[0].dp_s == "N.P."


def test_decomposition_timings_small(spark):
    df = decomposition_timings(spark, names=("krogan",), sf=0.3, n=50)
    row = df.iloc[0]
    # FG/WG include the local pass, so they can never be faster than L
    assert row.FG_s >= row.L_s and row.WG_s >= row.L_s


def test_jobs_are_importable():
    """The spark-submit wrappers parse/compile (no __main__ execution)."""
    import pathlib
    import py_compile

    for f in pathlib.Path("jobs").glob("*.py"):
        py_compile.compile(str(f), doraise=True)


def test_run_all_tables_resolve_in_the_entrypoint(capsys):
    """results/run_all.sh runs every table of jobs/run.py once, by a name
    the entrypoint knows, and the entrypoint's --help parses."""
    import importlib.util
    import pathlib
    import re

    root = pathlib.Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("jobs_run", root / "jobs" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    script = (root / "results" / "run_all.sh").read_text()
    assert re.findall(r"^run (\S+) ", script, re.M) == list(run.TABLES)
    with pytest.raises(SystemExit) as done:
        run.main(["--help"])
    assert done.value.code == 0
    assert "table6" in capsys.readouterr().out
