#!/usr/bin/env python3
"""Benchmark of the sdde-meansq command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is imported from the
checkout's ``src`` directory; nothing is installed.  The run:

1. builds the workload's problem configs from the seed (workloads.py);
2. times set-up in several fresh interpreters: import of ``sdde_meansq``
   plus parsing of every config, reported as the median (``setup_s``);
3. starts one fresh interpreter for the workload, which calls
   ``sdde_meansq.cli.main(argv)`` on the problems in closed loop, one call
   at a time, in whole passes over the problem list until S seconds are
   used, then checks the artifacts (child.py);
4. prints every metric with its unit and sample count, writes the run
   record (provenance, per-call artifact sha256, checks, spans) under
   ``.perfbench/``, and prints one JSON result as the last line.

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and the result holds the
per-layer metrics (layers.py) and the tracing overhead.  The exit code is
nonzero when any call fails or any check fails.  ``--tiny`` shrinks the
problems for the benchmark's own tests.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
#: the whole run, set-up and checks included, ends within this many seconds
DEADLINE_S = 170.0
SETUP_SAMPLES = 5
BLAS_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "SDDE_MEANSQ_THREADS",
)

#: end-to-end metrics (--trace 0) and their units
END_TO_END = {
    "setup_s": "s",
    "call_s.p50": "s",
    "call_s.p90": "s",
    "peak_rss_mb": "MB",
}
#: per-layer metrics (--trace 1) and their units
PER_LAYER = {
    "import.busy_s": "s",
    **{name: unit for name, (unit, _) in layers.METRICS.items()},
    "montecarlo.max_abs_z": "1",
    "trace.overhead_s": "s",
}


def _child(mode: str, plan: Path, result: Path, timeout: float, extra=()) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "child.py"), mode, "--plan", str(plan),
           "--result", str(result), *extra]
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=max(timeout, 1.0))
    if proc.returncode != 0 or not result.is_file():
        raise RuntimeError(f"{mode} process exited with {proc.returncode}")
    return json.loads(result.read_text())


def _quantile(values: list, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _write_plan(work: Path, wl, args) -> Path:
    problems = []
    for prob in wl.problems:
        cfg = work / "configs" / f"{prob.name}.json"
        cfg.parent.mkdir(parents=True, exist_ok=True)
        cfg.write_text(json.dumps(prob.doc, indent=1))
        problems.append({
            "name": prob.name,
            "command": prob.command,
            "config": str(cfg),
            "h": prob.doc["numerical"]["h"],
            "expect": prob.expect,
        })
    plan = {"workload": wl.name, "seed": args.seed, "src": str(SRC), "work": str(work),
            "problems": problems}
    path = work / "plan.json"
    path.write_text(json.dumps(plan, indent=1))
    return path


def _line(name: str, value, unit: str, samples: str) -> None:
    print(f"  {name:<34} {value:<14.6g} {unit:<6} ({samples})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small problems for self-tests")
    args = ap.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "sdde_meansq" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    work = ROOT / ".perfbench" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = workloads.build(args.workload, args.seed, tiny=args.tiny)
    plan = _write_plan(work, wl, args)

    def remaining() -> float:
        return DEADLINE_S - (time.perf_counter() - started)

    try:
        setups = [
            _child("setup", plan, work / f"setup{i}.json", remaining())
            for i in range(2 if args.tiny else SETUP_SAMPLES)
        ]
        rec = _child("run", plan, work / "run-child.json", remaining(),
                     ["--seconds", str(args.seconds), "--trace", str(args.trace)])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    calls = rec["calls"]
    attempted = len(calls)
    failed = rec["failed"]
    checks = rec["checks"]
    lat = [c["latency_s"] for c in calls]
    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}"
          f"  ({len(wl.problems)} problems, closed loop, one call at a time)")

    def worst(key):
        vals = [c[key] for c in checks.values() if key in c]
        return (max(vals), len(vals)) if vals else (None, 0)

    setup_s = statistics.median(s["setup_s"] for s in setups)
    if args.trace == 0:
        metrics = {
            "setup_s": setup_s,
            "call_s.p50": statistics.median(lat),
            "call_s.p90": _quantile(lat, 90),
            "peak_rss_mb": rec["peak_rss_kb"] / 1024.0,
        }
        beyond = sum(1 for v in lat if v > metrics["call_s.p90"])
        _line("setup_s", setup_s, "s", f"median of {len(setups)} fresh interpreters")
        _line("call_s.p50", metrics["call_s.p50"], "s", f"n={len(lat)} calls")
        _line("call_s.p90", metrics["call_s.p90"], "s", f"n={len(lat)} calls, {beyond} beyond"
              + ("" if beyond >= 10 else "; under 10 beyond, a rough tail"))
        _line("peak_rss_mb", metrics["peak_rss_mb"], "MB", "1 workload process")
    for key, unit in (("stat_abs_err", "1"), ("msq_rel_err", "1")):
        value, n = worst(key)
        if value is not None:
            _line(key, value, unit, f"max over {n} problems")
    _line("fail_share", failed / attempted, "1", f"{failed}/{attempted} calls")
    z, _ = worst("max_abs_z")
    for name, c in checks.items():
        if "z" in c:
            print(f"  |z| vs renewal, {name:<15}" + "".join(
                f"  t={t}: {abs(v):.2f}{'' if t in c['z_gated'] else ' (ungated)'}"
                for t, v in c["z"].items()))
    if z is not None:
        print("  ungated |z| values show the acceptance-criterion-4 heavy-tail defect of the "
              "plain Monte Carlo estimator; gated ones must be <= 4")

    if args.trace == 1:
        tr = rec["trace"]
        metrics = {"import.busy_s": statistics.median(s["import_s"] for s in setups)}
        metrics.update({k: v for k, v in tr["layers"].items() if k in PER_LAYER})
        metrics["montecarlo.max_abs_z"] = z if z is not None else 0.0
        for name in PER_LAYER:
            if name in metrics:
                _line(name, metrics[name], PER_LAYER[name],
                      f"median of {len(setups)} fresh interpreters" if name == "import.busy_s"
                      else f"median of {tr['passes']} traced passes")
        for name in tr["absent"]:
            print(f"  absent wrap target: {name}")
        dominant = max(tr["shares"], key=tr["shares"].get)
        print("  share of time (wall, summed over threads): "
              + ", ".join(f"{k} {v:.0%}" for k, v in tr["shares"].items()))
        print(f"  dominant layer {dominant} (intended {wl.dominant}): "
              + ("confirmed" if dominant == wl.dominant else "NOT confirmed"))
        if not tr["identical"]:
            print("  FAIL traced artifacts differ from untraced artifacts")
        if not tr["restored"]:
            print("  FAIL wrapped functions were not restored")
        (work / "spans.json").write_text(json.dumps(tr.pop("spans")))

    for name, c in checks.items():
        for msg in c["details"]:
            print(f"  FAIL {name}: {msg}")
    for c in calls:
        if c["exit"] != 0:
            print(f"  FAIL {c['problem']}: exit {c['exit']}\n{c['error'] or ''}")
        if c.get("mismatch"):
            print(f"  FAIL {c['problem']}: artifacts differ between repeated calls")

    provenance = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "git_commit": _git_commit(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "versions": rec["versions"],
        "blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
        "setups": setups,
        "record": rec,
        "metrics": metrics,
    }
    (work / "run.json").write_text(json.dumps(provenance, indent=1))
    print(f"  record: {work.relative_to(ROOT) / 'run.json'}")

    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": (END_TO_END | PER_LAYER)[k]}
                                  for k, v in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
