"""One benchmark run of one workload, in the fresh process ``run.py`` starts.

    python3 perfbench/workload.py --workload krogan-mc --seed 0 --seconds 3 \
        --trace 0 --raw perfbench/out/raw.json

``run.py`` sets the environment first (PYTHONPATH with ``src`` for Spark's
Python workers, PYSPARK_SUBMIT_ARGS, scratch directories), because Spark
reads it when the JVM starts. The run has three phases:

1. set-up (``setup_s``): Spark session and JVM start, input generation from
   the seed plus ``createDataFrame`` (repeated, median), and a warm-up of
   the same library calls on a 5-vertex graph that is not the workload;
2. measurement, one client in a closed loop: the Spark-bound calls
   (``collect_structures``, FG, WG) once, the driver-side calls (DP and AP
   peels, ℓ-nuclei extraction, and core and truss baselines where the
   workload has them) repeated at least
   ``MIN_REPS`` times and until ``--seconds`` have passed since the last
   Spark-bound call returned, medians reported;
3. correctness checks, outside every timed span.

The seed relabels the analog's vertices by a random increasing map (seed 0
keeps the analog as ``results/`` uses it; see :func:`make_input`) and is the
Monte-Carlo seed. A relabelled graph is isomorphic to the analog, so every
seed does the same work, and its DP ν maps back onto the stored reference of
seed 0.
"""
import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np
import pandas as pd

import checks
from tracing import Tracer, result_attrs

clock = time.perf_counter
#: input generation + createDataFrame repetitions inside set-up
SETUP_REPS = 3
#: calls made once per run; every other call is part of a repetition
ONCE = ("collect", "fg", "wg")
#: repetitions of the driver-side calls at least, so that every median is
#: taken over three samples or more
MIN_REPS = 3
#: θ of the DP and AP peels and of the core and truss baselines (Table 4)
THETAS = (0.1, 0.3)
#: FG and WG run for k = 1 only: each k is one Spark fan-out of 5-9 s, and
#: the run budget (README.md, "Workloads") has room for one
MC_LEVELS = 1
#: Monte-Carlo worlds per candidate in FG and WG
MC_N = 200


@dataclass(frozen=True)
class Workload:
    graph: str
    sf: float
    mc_theta: float | None = None  # θ of the FG/WG pass; None: no FG/WG
    baselines: bool = False  # run the core and truss baselines


WORKLOADS = {
    # huge-c regime: enumeration, O(c^2) DP peeling and nucleus extraction
    # do the work; no Monte-Carlo
    "enwiki-local": Workload("enwiki", 0.04),
    # Monte-Carlo regime: FG and WG take about half the time, collect the
    # rest; c <= 8, so DP cost is negligible. A small graph, as the core
    # and truss baselines of Table 4 use.
    "krogan-mc": Workload("krogan", 0.15, mc_theta=0.1, baselines=True),
    # harness self-test only (test_harness.py); not in BENCHMARK.json
    "toy": Workload("krogan", 0.02, mc_theta=0.3, baselines=True),
}


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def session():
    """The table jobs' session settings (``jobs/_run.session``); master and
    driver memory come from PYSPARK_SUBMIT_ARGS."""
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )


def make_input(wl: Workload, seed: int) -> tuple[pd.DataFrame, np.ndarray]:
    """The analog's edge list with vertex ids relabelled by the seed, and the
    inverse relabelling (new id -> analog id, -1 where no vertex has it).

    The relabelling is a random *increasing* map into [0, 4n): it keeps the
    order of the ids, which the library uses to break degree ties when it
    orients edges and when core and truss peel. So every seed does the same
    work, and only where ids land in Spark's hash partitions changes."""
    from repro.datasets import analog_pdf

    pdf = analog_pdf(wl.graph, sf=wl.sf)
    n = int(max(pdf.u.max(), pdf.v.max())) + 1
    if seed == 0:
        ids = np.arange(n)
    else:
        ids = np.sort(np.random.default_rng(seed).choice(4 * n, size=n, replace=False))
    inv = np.full(int(ids[-1]) + 1, -1)
    inv[ids] = np.arange(n)
    out = pd.DataFrame(
        {"u": ids[pdf.u.to_numpy()], "v": ids[pdf.v.to_numpy()], "p": pdf.p.to_numpy()}
    )
    return out, inv


def warm_up(spark, wl: Workload) -> None:
    """Run the workload's library calls once on K5, so the first-job cost
    of the session (code generation, Python worker start) is set-up."""
    from repro.nucleus.global_ import mc_triangle_counts
    from repro.nucleus.local import collect_structures, ell_nuclei, local_decomposition

    k5 = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    df = spark.createDataFrame(pd.DataFrame(k5, columns=["u", "v"]).assign(p=0.9))
    structs = collect_structures(spark, df)
    for scorer in ("dp", "ap"):
        d = local_decomposition(spark, df, 0.1, scorer=scorer, structures=structs)
    ell_nuclei(d, 1)
    if wl.mc_theta is not None:
        mc_triangle_counts(spark, {0: {e: 0.9 for e in k5}}, 1, 8, 0, "g")


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


class Calls:
    """Times every library call of the workload; with a tracer, also opens a
    span per call and attaches kernel and Spark job-group counters to it."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.traced = False
        self.once: dict[str, float] = {}
        self.reps: list[dict] = []  # one {metric: seconds} per repetition
        self.traced_reps: list[bool] = []
        self.count = 0

    def __call__(self, metric: str, layer: str, fn, *args, group=None, **kw):
        self.count += 1
        tr = self.tracer if self.traced else None
        if tr is None:
            t = clock()
            out = fn(*args, **kw)
            dt = clock() - t
        else:
            g = tr.start_group(group) if group else None
            before = tr.kernel_snapshot()
            rep = None if metric in ONCE else len(self.reps) - 1
            with tr.span(layer, metric=metric, rep=rep) as s:
                out = fn(*args, **kw)
            dt = s.duration
            s.attrs.update(result_attrs(layer, args, kw, out))
            after = tr.kernel_snapshot()
            s.attrs["kernels"] = {
                n: [a - b for a, b in zip(after[n], before[n])]
                for n in after
                if after[n][0] != before[n][0]
            }
            if g:
                s.attrs["spark"] = tr.end_group(g)
        if metric in ONCE:
            self.once[metric] = dt
        else:
            self.reps[-1][metric] = self.reps[-1].get(metric, 0.0) + dt
        return out

    def new_rep(self, traced: bool) -> None:
        self.reps.append({})
        self.traced_reps.append(traced)
        if self.tracer is not None and traced != self.traced:
            (self.tracer.install if traced else self.tracer.uninstall)()
        self.traced = traced


def driver_rep(call: Calls, wl: Workload, spark, edge_df, pdf, structs) -> dict:
    """The repeated, driver-side part of the workload."""
    from repro.nucleus.local import ell_nuclei, local_decomposition
    from repro.prob.core import max_eta_cores
    from repro.prob.truss import max_gamma_trusses

    out = {}
    for th in THETAS:
        dp = call(f"dp@{th}", "local.peel_dp", local_decomposition, spark, edge_df, th,
                  scorer="dp", structures=structs)
        ap = call(f"ap@{th}", "local.peel_ap", local_decomposition, spark, edge_df, th,
                  scorer="ap", structures=structs)
        nuclei = {
            k: call("nuclei", "local.extract", ell_nuclei, dp, k)
            for k in range(1, dp.k_max + 1)
        }
        out[th] = dict(dp=dp, ap=ap, nuclei=nuclei)
        if wl.baselines:
            out[th]["core"] = call("core", "core", max_eta_cores, pdf, th)
            out[th]["truss"] = call("truss", "truss", max_gamma_trusses, pdf, th)
    return out


def mc_pass(module, fn: str, spark, decomp, seed: int) -> dict:
    """FG or WG for k = 1..min(MC_LEVELS, k_max), as g_/w_decomposition run
    them; the per-k function is looked up at call time, so a traced run
    sees its patched version."""
    levels = range(1, min(MC_LEVELS, decomp.k_max) + 1)
    return {k: getattr(module, fn)(spark, decomp, k, n=MC_N, seed=seed) for k in levels}


def measure(spark, wl: Workload, seed: int, seconds: float, edge_df, pdf, tracer):
    from repro.nucleus import global_, weakly
    from repro.nucleus.local import collect_structures

    call = Calls(tracer)
    call.traced = tracer is not None
    if call.traced:
        tracer.install()
    structs = call("collect", "graph.collect", collect_structures, spark, edge_df,
                   group="graph.collect")
    results, fg, wg = [], None, None
    while True:
        # a traced run alternates traced and untraced repetitions, so that
        # trace.overhead_s compares the two on the same calls
        call.new_rep(traced=tracer is not None and len(call.reps) % 2 == 0)
        results.append(driver_rep(call, wl, spark, edge_df, pdf, structs))
        if len(results) == 1:
            if wl.mc_theta is not None:
                d = results[0][wl.mc_theta]["dp"]
                fg = call("fg", "fg", mc_pass, global_, "g_nuclei", spark, d, seed, group="fg")
                wg = call("wg", "wg", mc_pass, weakly, "w_nuclei", spark, d, seed, group="wg")
            start = clock()  # the window covers the repetitions only
        if len(call.reps) >= MIN_REPS and clock() - start >= seconds:
            break
    if tracer is not None:
        tracer.uninstall()
    return call, structs, results, fg, wg


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _median(call: Calls, metric: str, traced: bool | None = None) -> float:
    vals = [
        r.get(metric, 0.0)
        for r, t in zip(call.reps, call.traced_reps)
        if traced is None or t == traced
    ]
    return statistics.median(vals)


def end_to_end(call: Calls, wl: Workload, structs, setup_s: float) -> dict:
    """The user-visible metrics. In a traced run they use the traced
    repetitions; trace.overhead_s reports the difference."""
    traced = True if any(call.traced_reps) else None
    med = lambda m: _median(call, m, traced)  # noqa: E731
    collect = call.once["collect"]
    dp = sum(med(f"dp@{th}") for th in THETAS)
    ap = sum(med(f"ap@{th}") for th in THETAS)
    e2e = {
        "setup_s": setup_s,
        "ell_dp_s": collect + dp,
        "ell_ap_s": collect + ap,
        "nuclei_s": med("nuclei"),
    }
    if wl.baselines:
        e2e["core_s"] = med("core")
        e2e["truss_s"] = med("truss")
    if wl.mc_theta is not None:
        e2e["fg_s"] = call.once["fg"]
        e2e["wg_s"] = call.once["wg"]
    e2e["wall_s"] = collect + dp + ap + sum(
        e2e.get(m, 0.0) for m in ("nuclei_s", "core_s", "truss_s", "fg_s", "wg_s")
    )
    e2e["tri_per_s"] = len(structs[0]) / e2e["ell_dp_s"]
    e2e["driver_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return e2e


def per_layer(call: Calls, wl: Workload, pdf, structs, results, tracer: Tracer) -> dict:
    """Layer metrics from the spans of the first traced repetition (counts)
    and the median over traced repetitions (times)."""
    tri_pdf, clique_pdf, inc_pdf = structs
    spans = tracer.spans
    top = [(i, s) for i, s in enumerate(spans) if s.parent is None]
    first = [s for _, s in top if s.attrs.get("rep") == 0]

    def kern(span_list, name, idx):
        return sum(s.attrs.get("kernels", {}).get(name, [0, 0.0, 0])[idx] for s in span_list)

    def spark_of(name):
        return next(s.attrs.get("spark", {}) for _, s in top if s.name == name)

    c = inc_pdf.groupby("tid").size() if len(inc_pdf) else pd.Series([0])
    collect_spark = spark_of("graph.collect")
    m = {
        "graph.collect_s": call.once["collect"],
        "graph.spark_jobs": collect_spark["jobs"],
        "graph.spark_stages": collect_spark["stages"],
        "graph.spark_tasks": collect_spark["tasks"],
        "graph.failed_tasks": collect_spark["failed_tasks"],
        "graph.edges": len(pdf),
        "graph.triangles": len(tri_pdf),
        "graph.cliques": len(clique_pdf),
        "graph.incidence_rows": len(inc_pdf),
        "graph.c_max": int(c.max()),
        "graph.c_mean": len(inc_pdf) / max(1, len(tri_pdf)),
    }

    dp_spans = [s for s in first if s.name == "local.peel_dp"]
    ap_spans = [s for s in first if s.name == "local.peel_ap"]
    ap_calls = kern(ap_spans, "prob.ap", 0)
    med = lambda name: _median(call, name, True)  # noqa: E731
    score_s = statistics.median(
        sum(
            kern([s], "prob.dp", 1) + kern([s], "prob.ap", 1)
            for s in spans
            if s.parent is None and s.attrs.get("rep") == r
            and s.name in ("local.peel_dp", "local.peel_ap")
        )
        for r, t in enumerate(call.traced_reps)
        if t
    )
    mix = Counter()
    for th in THETAS:
        mix.update(results[0][th]["ap"].methods)
    m.update({
        "prob.dp_calls": kern(dp_spans, "prob.dp", 0),
        "prob.dp_ops": kern(dp_spans, "prob.dp", 2),
        "prob.ap_calls": ap_calls,
        "prob.score_s": score_s,
        **{f"prob.ap_mix.{k}": mix.get(k, 0) for k in ("poisson", "tpoisson", "clt", "binomial", "dp")},
        "prob.ap_fallback_ratio": kern(ap_spans, "prob.ap_fallback", 0) / max(1, ap_calls),
    })
    peel_dp = {th: med(f"dp@{th}") for th in THETAS}
    peel_ap = {th: med(f"ap@{th}") for th in THETAS}
    m["local.peel_dp_s"] = sum(peel_dp.values())
    m["local.peel_ap_s"] = sum(peel_ap.values())
    for th in THETAS:
        m[f"local.peel_dp_s.theta_{th}"] = peel_dp[th]
        m[f"local.peel_ap_s.theta_{th}"] = peel_ap[th]
        m[f"local.k_max.theta_{th}"] = results[0][th]["dp"].k_max
    m["local.peel_self_s"] = m["local.peel_dp_s"] + m["local.peel_ap_s"] - score_s
    extract = [s for s in first if s.name == "local.extract"]
    m["local.extract_s"] = med("nuclei")
    m["local.nuclei"] = sum(s.attrs["nuclei"] for s in extract)
    m["local.nucleus_triangles"] = sum(s.attrs["triangles"] for s in extract)

    m.update(_mc_metrics(tracer, top, "fg", "fg.g_nuclei"))
    m.update(_mc_metrics(tracer, top, "wg", "wg.w_nuclei"))

    for layer, kernel in (("core", "core.dp"), ("truss", "truss.dp")):
        sp = [s for s in first if s.name == layer]
        m[f"{layer}_s"] = med(layer)
        m[f"{layer}.dp_calls"] = kern(sp, kernel, 0)
        m[f"{layer}.dp_ops"] = kern(sp, kernel, 2)
        for th in THETAS:
            m[f"{layer}.k_max.theta_{th}"] = results[0][th][layer][0] if wl.baselines else 0
    m["trace.overhead_s"] = sum(
        _median(call, k, True) - _median(call, k, False) for k in call.reps[0]
    )
    return m


def _mc_metrics(tracer: Tracer, top, layer: str, per_k: str) -> dict:
    """FG or WG metrics from the spans under the layer's top-level span."""
    keys = {
        "fg": ("fg_s", "fg.grow_s", "fg.candidates", "fg.mc_s", "fg.worlds", "fg.us_per_world",
               "fg.accepted", "fg.accept_ratio", "fg.self_s", "fg.spark_jobs", "fg.spark_tasks"),
        "wg": ("wg_s", "wg.extract_s", "wg.mc_s", "wg.worlds", "wg.kept_ratio", "wg.nuclei",
               "wg.self_s"),
    }[layer]
    found = [(i, s) for i, s in top if s.name == layer]
    if not found:
        return dict.fromkeys(keys, 0)
    idx, span = found[0]
    sub = tracer.descendants(idx)
    dur = lambda name: sum(s.duration for s in sub if s.name == name)  # noqa: E731
    attr = lambda name, a: sum(s.attrs.get(a, 0) for s in sub if s.name == name)  # noqa: E731
    mc_s, worlds = dur(f"{layer}.mc"), attr(f"{layer}.mc", "worlds")
    if layer == "fg":
        grow_s, cands, accepted = dur("fg.grow"), attr("fg.grow", "candidates"), attr(per_k, "nuclei")
        return {
            "fg_s": span.duration,
            "fg.grow_s": grow_s,
            "fg.candidates": cands,
            "fg.mc_s": mc_s,
            "fg.worlds": worlds,
            "fg.us_per_world": 1e6 * mc_s / max(1, worlds),
            "fg.accepted": accepted,
            "fg.accept_ratio": accepted / max(1, cands),
            "fg.self_s": dur(per_k) - grow_s - mc_s,
            "fg.spark_jobs": span.attrs["spark"]["jobs"],
            "fg.spark_tasks": span.attrs["spark"]["tasks"],
        }
    # WG: extraction spans are the direct children of w_nuclei
    kids = [
        s for s in sub
        if s.name == "local.extract" and tracer.spans[s.parent].name == per_k
    ]
    extract_s = sum(s.duration for s in kids)
    tested = sum(s.attrs["triangles"] for s in kids)
    return {
        "wg_s": span.duration,
        "wg.extract_s": extract_s,
        "wg.mc_s": mc_s,
        "wg.worlds": worlds,
        "wg.kept_ratio": attr(per_k, "triangles") / max(1, tested),
        "wg.nuclei": attr(per_k, "nuclei"),
        "wg.self_s": dur(per_k) - extract_s - mc_s,
    }


# ---------------------------------------------------------------------------
# correctness checks
# ---------------------------------------------------------------------------


def run_checks(wl: Workload, results, fg, wg, inv, reference: dict) -> tuple[int, list, dict]:
    """(checks attempted, failure messages, digests). Nothing here is timed."""
    attempted, failures, digests = 0, [], {}

    def check(ok_detail):
        nonlocal attempted
        attempted += 1
        ok, detail = ok_detail
        if not ok:
            failures.append(detail)

    relabel = lambda d: _relabelled(d, inv)  # noqa: E731
    for th in THETAS:
        got = [checks.nu_digest(relabel(r[th]["dp"])) for r in results]
        digest = digests[f"dp@{th}"] = got[0]
        digests[f"ap@{th}"] = checks.nu_digest(relabel(results[0][th]["ap"]))
        ref = reference.get(str(th))
        check((len(set(got)) == 1, f"θ={th}: DP ν differs between repetitions"))
        check((ref is None or ref == digest, f"θ={th}: DP ν digest {digest} != reference {ref}"))
        r0 = results[0][th]
        check(checks.kmax_close(r0["dp"], r0["ap"]))
        tri = checks.triangle_of(r0["dp"])
        for k, hs in r0["nuclei"].items():
            for h in hs:
                check(checks.nucleus_sound(tri, th, h, k))
        if wl.baselines:
            check(checks.core_sound(*r0["core"], th))
            check(checks.truss_sound(*r0["truss"], th))
    if fg is not None:
        local = results[0][wl.mc_theta]["nuclei"]
        for label, per_k in (("fg", fg), ("wg", wg)):
            for ok_detail in checks.inside_local(per_k, local, label):
                check(ok_detail)
            digests[label] = checks.nuclei_digest(
                {k: [_relabel_subgraph(h, inv) for h in hs] for k, hs in per_k.items()}
            )
    return attempted, failures, digests


def _relabelled(decomp, inv):
    """A view of a decomposition with tri_pdf vertex ids mapped back."""
    t = decomp.tri_pdf
    tri = t.assign(x=inv[t.x.to_numpy()], y=inv[t.y.to_numpy()], z=inv[t.z.to_numpy()])
    return replace(decomp, tri_pdf=tri)


def _relabel_subgraph(h, inv):
    edges = {
        (min(inv[u], inv[v]), max(inv[u], inv[v])): p for (u, v), p in h.edges.items()
    }
    return replace(h, edges=edges)


# ---------------------------------------------------------------------------


def fingerprint(spark) -> dict:
    import platform

    import pyspark

    with open("/proc/meminfo") as f:
        mem_kb = int(next(line for line in f if line.startswith("MemTotal")).split()[1])
    sc = spark.sparkContext
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "mem_total_gb": round(mem_kb / 2**20, 1),
        "python": platform.python_version(),
        "spark": spark.version,
        "pyspark": pyspark.__version__,
        "numpy": np.__version__,
        "pandas": pd.__version__,
        "master": sc.master,
        "local_threads": sc.defaultParallelism,
        "driver_memory": sc.getConf().get("spark.driver.memory", "default"),
        "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
    }


def stop(spark) -> None:
    """Stop Spark and wait until its JVM has exited."""
    from pyspark import SparkContext

    spark.stop()
    gw = SparkContext._gateway
    proc = getattr(gw, "proc", None)
    if proc is not None:
        gw.shutdown()
        proc.stdin.close()  # the gateway server exits on EOF
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--raw", required=True, help="where to write the run's raw JSON")
    args = p.parse_args(argv)
    wl = WORKLOADS[args.workload]
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")) as f:
        reference = json.load(f).get(args.workload, {})
    raw = {"workload": args.workload, "seed": args.seed, "trace": args.trace}

    t0 = clock()
    spark = session()
    t_session = clock() - t0
    try:
        input_s = []
        for _ in range(SETUP_REPS):
            t = clock()
            pdf, inv = make_input(wl, args.seed)
            edge_df = spark.createDataFrame(pdf)
            input_s.append(clock() - t)
        t = clock()
        warm_up(spark, wl)
        t_warm = clock() - t
        setup_s = t_session + statistics.median(input_s) + t_warm
        raw["setup"] = {"session_s": t_session, "input_s": input_s, "warm_up_s": t_warm}
        raw["fingerprint"] = fingerprint(spark)

        tracer = Tracer(spark.sparkContext) if args.trace else None
        call, structs, results, fg, wg = measure(
            spark, wl, args.seed, args.seconds, edge_df, pdf, tracer
        )
        raw["end_to_end"] = end_to_end(call, wl, structs, setup_s)
        if tracer is not None:
            raw["per_layer"] = per_layer(call, wl, pdf, structs, results, tracer)
            raw["spans"] = tracer.dump()
        n_checks, failures, digests = run_checks(wl, results, fg, wg, inv, reference)
        raw.update(
            attempted=call.count + n_checks,
            failed=len(failures),
            failures=failures,
            digests=digests,
            repetitions=len(call.reps),
            timings={"once": call.once, "reps": call.reps, "traced": call.traced_reps},
        )
    except Exception:
        raw["error"] = traceback.format_exc()
        print(raw["error"], file=sys.stderr)
    finally:
        with open(args.raw, "w") as f:
            json.dump(raw, f, indent=1, default=str)
        stop(spark)
    return 1 if "error" in raw else 0


if __name__ == "__main__":
    sys.exit(main())
