"""Experiment harnesses — one function per evaluation table of the paper.

Each function returns a pandas DataFrame whose rows mirror the paper's table
layout; ``jobs/table*.py`` wrap them for spark-submit, ``benchmarks/`` wraps
them for pytest-benchmark, and EXPERIMENTS.md records paper-vs-measured
values. Dataset analogs are described in DESIGN.md §4.
"""
import time

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from repro.datasets import ANALOGS, analog
from repro.graph.edges import canonical_edges, degrees, oriented
from repro.graph.triangles import triangles
from repro.nucleus.global_ import g_decomposition
from repro.nucleus.local import collect_structures, ell_nuclei, local_decomposition
from repro.nucleus.metrics import subgraph_stats
from repro.nucleus.weakly import w_decomposition
from repro.prob.core import max_eta_cores
from repro.prob.truss import max_gamma_trusses


def table1_stats(
    spark: SparkSession, names: list[str] | None = None, sf: float = 1.0
) -> pd.DataFrame:
    """Table 1: |V|, |E|, d_max, p_avg, |△| for every dataset analog."""
    rows = []
    for name in names or list(ANALOGS):
        e = canonical_edges(analog(spark, name, sf=sf)).cache()
        stats = e.agg(
            F.count("*").alias("E"), F.round(F.avg("p"), 3).alias("p_avg")
        ).collect()[0]
        nv = (
            e.select(F.col("u").alias("x"))
            .unionAll(e.select(F.col("v").alias("x")))
            .distinct()
            .count()
        )
        dmax = degrees(e).agg(F.max("deg")).collect()[0][0]
        ntri = triangles(oriented(e)).count()
        e.unpersist()
        rows.append(
            dict(graph=name, V=nv, E=stats.E, d_max=dmax, p_avg=stats.p_avg, triangles=ntri)
        )
    return pd.DataFrame(rows)


def _nu_errors(dp_nu: np.ndarray, ap_nu: np.ndarray) -> tuple[float, float]:
    """(avg |ν_AP − ν_DP|, % triangles with differing ν) — Table 2 metrics,
    over ν arrays indexed by tid."""
    if not len(dp_nu):
        return 0.0, 0.0
    return float(np.abs(ap_nu - dp_nu).mean()), float((ap_nu != dp_nu).mean() * 100.0)


def table2_accuracy(
    spark: SparkSession,
    names: list[str] | None = None,
    sf: float = 1.0,
    thetas: tuple = (0.2, 0.4),
) -> pd.DataFrame:
    """Table 2: AP-vs-DP final-score error per dataset for θ ∈ {0.2, 0.4}."""
    rows = []
    for name in names or list(ANALOGS):
        edge_df = analog(spark, name, sf=sf)
        structs = collect_structures(spark, edge_df)  # enumerate once per graph
        row: dict = {"graph": name}
        for theta in thetas:
            dp = local_decomposition(spark, edge_df, theta, scorer="dp", structures=structs)
            ap = local_decomposition(spark, edge_df, theta, scorer="ap", structures=structs)
            err, pct = _nu_errors(dp.nu, ap.nu)
            row[f"avg_err@{theta}"] = round(err, 5)
            row[f"pct_err@{theta}"] = round(pct, 3)
        rows.append(row)
    return pd.DataFrame(rows)


def table3_distributions(
    spark: SparkSession,
    sf: float = 1.0,
    thetas: tuple = (0.1, 0.2, 0.3),
    dists: tuple = ("normal", "pareto", "uniform"),
) -> pd.DataFrame:
    """Table 3: AP accuracy on the pokec analog under Normal / Pareto /
    Uniform edge-probability distributions (plus the AP/DP runtimes the
    paper reports in the accompanying text)."""
    rows = []
    for dist in dists:
        edge_df = analog(spark, "pokec", sf=sf, dist=dist)
        structs = collect_structures(spark, edge_df)
        row: dict = {"dataset": f"pokec_{dist.capitalize()}"}
        t_ap = t_dp = 0.0
        for theta in thetas:
            t0 = time.perf_counter()
            dp = local_decomposition(spark, edge_df, theta, scorer="dp", structures=structs)
            t_dp += time.perf_counter() - t0
            t0 = time.perf_counter()
            ap = local_decomposition(spark, edge_df, theta, scorer="ap", structures=structs)
            t_ap += time.perf_counter() - t0
            err, pct = _nu_errors(dp.nu, ap.nu)
            row[f"avg_err@{theta}"] = round(err, 5)
            row[f"pct_err@{theta}"] = round(pct, 3)
        row["avg_time_dp_s"] = round(t_dp / len(thetas), 2)
        row["avg_time_ap_s"] = round(t_ap / len(thetas), 2)
        rows.append(row)
    return pd.DataFrame(rows)


def _avg_subgraph_stats(subs) -> dict:
    """Average |V|, |E|, PD, PCC over extracted components (Table 4 style)."""
    if not subs:
        return dict(V=0, E=0, PD=0.0, PCC=0.0)
    stats = [subgraph_stats(h.edge_pdf) for h in subs]
    return {
        k: float(np.mean([s[k] for s in stats])) for k in ("V", "E", "PD", "PCC")
    }


def table4_cohesiveness(
    spark: SparkSession,
    names: tuple = ("dblp", "pokec", "biomine"),
    sf: float = 1.0,
    thetas: tuple = (0.1, 0.3),
) -> pd.DataFrame:
    """Table 4: max-score ℓ-nucleus vs (k,γ)-truss vs (k,η)-core —
    sizes, PD, PCC and decomposition time, θ = γ = η ∈ {0.1, 0.3}."""
    rows = []
    for name in names:
        edge_pdf = canonical_edges(analog(spark, name, sf=sf)).toPandas()
        edge_df = spark.createDataFrame(edge_pdf)
        for theta in thetas:
            t0 = time.perf_counter()
            d = local_decomposition(spark, edge_df, theta, scorer="dp")
            nuclei = ell_nuclei(d, d.k_max)
            t_n = time.perf_counter() - t0
            t0 = time.perf_counter()
            k_t, trusses = max_gamma_trusses(edge_pdf, theta)
            t_t = time.perf_counter() - t0
            t0 = time.perf_counter()
            k_c, cores = max_eta_cores(edge_pdf, theta)
            t_c = time.perf_counter() - t0
            sn, st, sc = map(_avg_subgraph_stats, (nuclei, trusses, cores))
            rows.append(
                dict(
                    graph=name,
                    theta=theta,
                    V_N=round(sn["V"], 1), V_T=round(st["V"], 1), V_C=round(sc["V"], 1),
                    E_N=round(sn["E"], 1), E_T=round(st["E"], 1), E_C=round(sc["E"], 1),
                    k_Nmax=d.k_max, k_Tmax=k_t, k_Cmax=k_c,
                    PD_N=round(sn["PD"], 3), PD_T=round(st["PD"], 3), PD_C=round(sc["PD"], 3),
                    PCC_N=round(sn["PCC"], 3), PCC_T=round(st["PCC"], 3), PCC_C=round(sc["PCC"], 3),
                    time_N=round(t_n, 2), time_T=round(t_t, 2), time_C=round(t_c, 2),
                )
            )
    return pd.DataFrame(rows)


#: Table 5 sample-size ladder with the paper's (ε, δ) annotations.
TABLE5_SIZES = ((150, 0.1, 0.1), (300, 0.07, 0.05), (500, 0.05, 0.06),
                (1000, 0.05, 0.01), (2000, 0.03, 0.05))


def table5_sample_size(
    spark: SparkSession,
    sf: float = 1.0,
    theta: float = 0.1,
    sizes: tuple = TABLE5_SIZES,
    name: str = "krogan",
    seed: int = 0,
) -> pd.DataFrame:
    """Table 5: FG/WG average PD, PCC, |E|, |V| (over all nuclei, all k) as
    the Monte-Carlo sample count n grows — stability of the estimates."""
    edge_df = analog(spark, name, sf=sf)
    d = local_decomposition(spark, edge_df, theta, scorer="dp")
    rows = []
    for n, eps, delta in sizes:
        out: dict = {"n": n, "eps": eps, "delta": delta}
        for label, fn in (("g", g_decomposition), ("w", w_decomposition)):
            per_k = fn(spark, d, n=n, seed=seed)
            subs = [h for hs in per_k.values() for h in hs]
            s = _avg_subgraph_stats(subs)
            out[f"{label}_PD"] = round(s["PD"], 6)
            out[f"{label}_PCC"] = round(s["PCC"], 6)
            out[f"{label}_E"] = round(s["E"], 5)
            out[f"{label}_V"] = round(s["V"], 5)
        rows.append(out)
    df = pd.DataFrame(rows)
    num = df.drop(columns=["eps", "delta"])
    summary = pd.DataFrame(
        [
            {"n": "avg", **num.drop(columns="n").mean().round(6).to_dict()},
            {"n": "sd", **num.drop(columns="n").std(ddof=0).round(6).to_dict()},
        ]
    )
    return pd.concat([df, summary], ignore_index=True)


def table6_enwiki_runtime(
    spark: SparkSession,
    sf: float = 1.0,
    thetas: tuple = (0.1, 0.2, 0.3, 0.4, 0.5),
    budget_s: float | None = None,
    name: str = "enwiki",
) -> pd.DataFrame:
    """§7.2 inline table: AP vs DP wall-clock on the largest analog per θ.

    ``budget_s`` reproduces the paper's "N.P." mechanism: a DP run that
    exceeds the budget is reported as N.P. (not possible) instead of a time.

    The (identical) distributed enumeration is hoisted out of the loop, so
    the reported times cover scoring + peeling — the part AP accelerates.
    """
    edge_df = analog(spark, name, sf=sf)
    structs = collect_structures(spark, edge_df)
    rows = []
    for theta in thetas:
        row: dict = {"theta": theta}
        for scorer in ("ap", "dp"):
            t0 = time.perf_counter()
            try:
                d = local_decomposition(
                    spark, edge_df, theta, scorer=scorer, budget_s=budget_s,
                    structures=structs,
                )
                row[f"{scorer}_s"] = round(time.perf_counter() - t0, 1)
                row[f"{scorer}_kmax"] = d.k_max
            except TimeoutError:
                row[f"{scorer}_s"] = "N.P."
                row[f"{scorer}_kmax"] = None
        rows.append(row)
    return pd.DataFrame(rows)


def decomposition_timings(
    spark: SparkSession,
    names: tuple = ("krogan", "dblp", "flickr"),
    sf: float = 1.0,
    theta: float = 0.1,
    n: int = 200,
    seed: int = 0,
) -> pd.DataFrame:
    """Figure 4 companion: wall-clock of L (local), FG, WG per dataset.

    FG/WG times include the local pass they build on, as in the paper.
    """
    rows = []
    for name in names:
        edge_df = analog(spark, name, sf=sf)
        t0 = time.perf_counter()
        d = local_decomposition(spark, edge_df, theta, scorer="dp")
        t_l = time.perf_counter() - t0
        t0 = time.perf_counter()
        g_decomposition(spark, d, n=n, seed=seed)
        t_fg = t_l + (time.perf_counter() - t0)
        t0 = time.perf_counter()
        w_decomposition(spark, d, n=n, seed=seed)
        t_wg = t_l + (time.perf_counter() - t0)
        rows.append(
            dict(graph=name, L_s=round(t_l, 2), FG_s=round(t_fg, 2), WG_s=round(t_wg, 2))
        )
    return pd.DataFrame(rows)
