"""Tests of the benchmark itself, at tiny sizes.

    python -m pytest perfbench
"""

import contextlib
import json
import shutil
import subprocess
import sys
import threading
import types
from pathlib import Path

import pytest

import run
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_matches_the_metrics_emitted():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.BUILDERS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_tiny_runs_emit_every_metric_and_tracing_changes_no_artifact(workload):
    names = {0: set(run.END_TO_END), 1: set(run.PER_LAYER)}
    for trace in (0, 1):
        proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                      "--trace", str(trace), "--tiny")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == names[trace]
    record = json.loads(
        (ROOT / ".perfbench" / f"{workload}-seed3-trace1-tiny" / "run.json").read_text()
    )["record"]
    assert record["trace"]["identical"] and record["trace"]["restored"]
    by_problem = {}
    for call in record["calls"]:
        by_problem.setdefault(call["problem"], set()).add(json.dumps(call["sha256"]))
    assert {c["pass"] for c in record["calls"]} == {"untraced", "traced"}
    assert all(len(hashes) == 1 for hashes in by_problem.values())


@contextlib.contextmanager
def tracer_root(tracer):
    """Hold a span open on the tracer's home thread, as a thread pool's caller does."""
    span = tracer._open("root")
    try:
        yield
    finally:
        tracer._close(span)


def test_tracer_is_thread_safe_reports_absent_targets_and_restores():
    def work(x):
        return x + 1

    target = types.SimpleNamespace(work=work)
    tracer = Tracer()
    assert tracer.wrap(target, "work", "demo.work")
    assert not tracer.wrap(target, "renamed_away", "demo.gone")
    assert tracer.wrap(target, "work", "demo.count", kind="count")

    with tracer_root(tracer):
        threads = [threading.Thread(target=lambda: [target.work(i) for i in range(500)])
                   for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)

    spans = [s for s in tracer.spans if s.name == "demo.work"]
    root = next(s for s in tracer.spans if s.name == "root")
    assert len(spans) == 2000 and tracer.totals["demo.count"][1] == 2000
    assert all(s.parent == root.id and s.end >= s.start for s in spans)
    assert tracer.absent == ["demo.gone"]
    assert tracer.restore() and target.work is work


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "classify-sweep", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
