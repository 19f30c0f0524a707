"""The repository's benchmark: one workload, one fresh process, one report.

    python3 perfbench/run.py --workload enwiki-local --seed 0 --seconds 3 --trace 0

Run from the root of a checkout. The workload runs in a child process
(``workload.py``) whose environment is fixed before its JVM starts; this
process captures the child's log, counts its WARN lines, prints every metric
by name and unit, writes ``perfbench/out/<workload>-seed<n>-trace<t>/report.json``
and prints, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones. A run whose library calls raise or time out exits non-zero without
that line. See perfbench/README.md for the workloads and the metric map.
"""
import argparse
import json
import os
import shlex
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: the child is stopped after this many seconds (runs must end within 180 s)
TIMEOUT_S = 170

#: (name, unit) of the metrics printed with --trace 0
END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("ell_dp_s", "s"), ("ell_ap_s", "s"),
    ("tri_per_s", "1/s"), ("driver_rss_mb", "MB"),
)
#: end-to-end metrics that appear in the printed table and the report but
#: not in the result line: FG, WG, core and truss run on one workload only,
#: error_rate is 0 when all is well, and the sub-second nuclei_s varies too
#: much between runs on a noisy host for a 0.25 bound (README.md, "Baseline")
REPORTED = (
    ("nuclei_s", "s"), ("core_s", "s"), ("truss_s", "s"), ("fg_s", "s"), ("wg_s", "s"),
    ("error_rate", "ratio"),
)

_T = ("theta_0.1", "theta_0.3")
#: (name, unit) of the metrics printed with --trace 1
PER_LAYER = (
    ("graph.collect_s", "s"), ("graph.spark_jobs", "count"), ("graph.spark_stages", "count"),
    ("graph.spark_tasks", "count"), ("graph.failed_tasks", "count"), ("graph.edges", "count"),
    ("graph.triangles", "count"), ("graph.cliques", "count"), ("graph.incidence_rows", "count"),
    ("graph.c_max", "count"), ("graph.c_mean", "count"), ("spark.warn_lines", "count"),
    ("prob.dp_calls", "count"), ("prob.dp_ops", "count"), ("prob.ap_calls", "count"),
    ("prob.score_s", "s"),
    *((f"prob.ap_mix.{m}", "count") for m in ("poisson", "tpoisson", "clt", "binomial", "dp")),
    ("prob.ap_fallback_ratio", "ratio"),
    ("local.peel_dp_s", "s"), ("local.peel_ap_s", "s"),
    *((f"local.peel_{s}_s.{t}", "s") for s in ("dp", "ap") for t in _T),
    ("local.peel_self_s", "s"), *((f"local.k_max.{t}", "count") for t in _T),
    ("local.extract_s", "s"), ("local.nuclei", "count"), ("local.nucleus_triangles", "count"),
    ("fg_s", "s"), ("fg.grow_s", "s"), ("fg.candidates", "count"), ("fg.mc_s", "s"),
    ("fg.worlds", "count"), ("fg.us_per_world", "us"), ("fg.accepted", "count"),
    ("fg.accept_ratio", "ratio"), ("fg.self_s", "s"), ("fg.spark_jobs", "count"),
    ("fg.spark_tasks", "count"),
    ("wg_s", "s"), ("wg.extract_s", "s"), ("wg.mc_s", "s"), ("wg.worlds", "count"),
    ("wg.kept_ratio", "ratio"), ("wg.nuclei", "count"), ("wg.self_s", "s"),
    ("core_s", "s"), ("core.dp_calls", "count"), ("core.dp_ops", "count"), *((f"core.k_max.{t}", "count") for t in _T),
    ("truss_s", "s"), ("truss.dp_calls", "count"), ("truss.dp_ops", "count"), *((f"truss.k_max.{t}", "count") for t in _T),
    ("trace.overhead_s", "s"),
)


def driver_memory() -> str:
    """Half the machine's memory, clamped to 2g..8g (the tier-1 rule)."""
    try:
        with open("/proc/meminfo") as f:
            kb = int(next(line for line in f if line.startswith("MemTotal:")).split()[1])
    except (OSError, StopIteration, ValueError):
        return "2g"
    return f"{min(8, max(2, kb // 2097152))}g"


def child_env(out: Path) -> dict:
    """Environment of the workload process, fixed before its JVM starts."""
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    threads = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env.update(
        # Spark's Python workers import repro, so src must be on their path
        PYTHONPATH=str(ROOT / "src"),
        PYSPARK_PYTHON=sys.executable,
        PYTHONHASHSEED="0",
        SPARK_LOCAL_DIRS=str(tmp),
        SPARK_LAUNCHER_OPTS="-XX:-UsePerfData",  # spark-submit's launcher JVM
        TMPDIR=str(tmp),
        PYSPARK_SUBMIT_ARGS=(
            f"--master local[{threads}] --driver-memory {driver_memory()} "
            "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
            # -XX:-UsePerfData: no hsperfdata file in /tmp, so the run writes
            # only inside the checkout
            "--driver-java-options "
            + shlex.quote(f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData")
            + " pyspark-shell"
        ),
    )
    return env


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def run_child(cmd: list, env: dict, log: Path, timeout: float) -> tuple[int | None, float]:
    """Run ``cmd`` in its own process group; kill the group on timeout and
    wait until every process in it (JVM, Python workers) has ended."""
    t0 = time.monotonic()
    with open(log, "wb") as f:
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=f, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL, start_new_session=True,
        )
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            code = None
    deadline = time.monotonic() + 20
    while _group_alive(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.2)
    if _group_alive(proc.pid):
        os.killpg(proc.pid, signal.SIGKILL)
        while _group_alive(proc.pid) and time.monotonic() < deadline + 10:
            time.sleep(0.2)
    return code, time.monotonic() - t0


def warn_lines(log: Path) -> int:
    """log4j WARN lines in the child's log (the library's log level is kept)."""
    with open(log, errors="replace") as f:
        return sum(1 for line in f if " WARN " in line[:40])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=3)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no library to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out.mkdir(parents=True, exist_ok=True)
    raw_path, log = out / "raw.json", out / "run.log"
    raw_path.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--raw", str(raw_path),
    ]
    code, elapsed = run_child(cmd, child_env(out), log, TIMEOUT_S)
    raw = json.loads(raw_path.read_text()) if raw_path.exists() else {}
    raw["exit_code"] = code
    raw["run_s"] = elapsed
    if code is None:
        raw["error"] = f"timed out after {TIMEOUT_S} s"
    elif code != 0:
        raw.setdefault("error", f"workload process exited with {code}")
    raw.setdefault("attempted", 1)
    raw.setdefault("failed", 0)
    if "error" in raw:
        raw["failed"] += 1  # the call that raised or the run that timed out
    e2e = raw.setdefault("end_to_end", {})
    e2e["error_rate"] = raw["failed"] / raw["attempted"]
    if "per_layer" in raw:
        raw["per_layer"]["spark.warn_lines"] = warn_lines(log)
    (out / "report.json").write_text(json.dumps(raw, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{raw.get('fingerprint', {}).get('master', '?')}  run {elapsed:.1f} s  log {log}")
    for name, unit in END_TO_END + REPORTED:
        if name in e2e:
            print(f"  {name:<26} {e2e[name]:>14.4f} {unit}")
    for name, unit in PER_LAYER if "per_layer" in raw else ():
        print(f"  {name:<26} {raw['per_layer'][name]:>14.4f} {unit}")
    for failure in raw.get("failures", []):
        print(f"  CHECK FAILED: {failure}")
    if "error" in raw:
        print(f"run failed: {raw['error']}", file=sys.stderr)
        return 1

    chosen = PER_LAYER if args.trace else END_TO_END
    src = raw["per_layer"] if args.trace else e2e
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": src[name], "unit": unit} for name, unit in chosen},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
