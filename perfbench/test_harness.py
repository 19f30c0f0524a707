"""Self-test of the benchmark harness at toy scale (about two minutes).

    python -m pytest perfbench/test_harness.py -q

It lives outside ``tests/`` and ``benchmarks/``, so the tier-1 suite never
collects it. It runs the ``toy`` workload (krogan analog, sf 0.02, FG/WG at
k = 1) through ``run.py`` exactly as the benchmark command does.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workload import WORKLOADS  # noqa: E402


def _run(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=400,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


def test_untraced_run_reports_every_end_to_end_metric():
    res = _result(_run("--workload", "toy", "--seed", "5", "--seconds", "1", "--trace", "0"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert list(res["metrics"]) == [name for name, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in res["metrics"].values())


def _copy(dest: Path) -> None:
    """A checkout holding BENCHMARK.json and the benchmark, without out/."""
    shutil.copy(HERE.parent / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns("out"))


def test_corrupted_digest_is_counted_in_a_traced_run(tmp_path):
    _copy(tmp_path)
    (tmp_path / "src").symlink_to(HERE.parent / "src")
    ref_path = tmp_path / "perfbench" / "reference.json"
    ref = json.loads(ref_path.read_text())
    ref["toy"]["0.1"] = "0" * 16
    ref_path.write_text(json.dumps(ref))
    res = _result(_run("--workload", "toy", "--seconds", "1", "--trace", "1", cwd=tmp_path))
    assert list(res["metrics"]) == [name for name, _ in run.PER_LAYER]
    assert not res["correct"] and res["failed"] >= 1
    out = tmp_path / "perfbench" / "out" / "toy-seed0-trace1"
    report = json.loads((out / "report.json").read_text())
    assert report["end_to_end"]["error_rate"] > 0
    assert any("reference" in f for f in report["failures"])
    spans = report["spans"]
    assert {"graph.collect", "local.peel_dp", "fg.mc", "wg.mc"} <= {s["name"] for s in spans}


def test_fails_without_the_library(tmp_path):
    _copy(tmp_path)
    proc = _run("--workload", "krogan-mc", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
