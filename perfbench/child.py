"""One benchmark process, started by run.py in a fresh interpreter.

    python3 child.py setup --plan PLAN --result FILE
    python3 child.py run   --plan PLAN --result FILE --seconds S --trace 0|1

``setup`` times the import of the package and the parsing of every
workload config.  ``run`` calls ``sdde_meansq.cli.main`` on the workload's
problems in passes until the time is used up, checks the artifacts, and
writes its record to FILE.  With ``--trace 1`` untraced and traced passes
alternate; the traced ones wrap the package's functions from outside (see
layers.py) and give the per-layer metrics.
"""

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import layers
from tracer import Tracer
from workloads import Z_TIMES

# numpy is imported inside the functions that need it, after sdde_meansq,
# so that a set-up sample times its import as part of the package's.

#: |z| limit for the Monte Carlo versus renewal comparison at gated times
Z_LIMIT = 4.0
#: renewal E|X|^2 against exp(rate t) on gbm problems: the second-order
#: error grows linearly in time, so the limit is this factor times h^2 T
MSQ_REL_TOL = 20.0


def _import_package(plan: dict):
    """Import sdde_meansq and refuse any copy other than the checkout's."""
    import sdde_meansq
    from sdde_meansq import cli

    origin = Path(sdde_meansq.__file__).resolve().parent
    expected = Path(plan["src"]).resolve() / "sdde_meansq"
    if origin != expected:
        raise SystemExit(f"imported sdde_meansq from {origin}, expected {expected}")
    return sdde_meansq, cli


def setup(plan: dict) -> dict:
    t0 = time.perf_counter()
    sdde_meansq, _ = _import_package(plan)
    t1 = time.perf_counter()
    for prob in plan["problems"]:
        sdde_meansq.parse_config(Path(prob["config"]).read_text())
    t2 = time.perf_counter()
    return {"import_s": t1 - t0, "parse_s": t2 - t1, "setup_s": t2 - t0}


def _hash_dir(path: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.iterdir())
        if p.is_file()
    }


def _clear(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


def invoke(cli, prob: dict, out: Path, tracer: Tracer | None = None, call_id: int = 0) -> dict:
    """One command call through the public entry point, timed."""
    _clear(out)
    argv = [prob["command"], "--config", prob["config"], "--out", str(out)]
    error = None
    if tracer is not None:
        tracer.call = call_id
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        code = None
        error = traceback.format_exc()
    latency = time.perf_counter() - t0
    return {
        "call": call_id,
        "problem": prob["name"],
        "latency_s": latency,
        "exit": code,
        "error": error,
        "sha256": _hash_dir(out),
    }


def _read_csv(path: Path):
    import numpy as np

    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def check(prob: dict, out: Path, reference) -> dict:
    """Correctness of one problem's artifacts; returns ok, details, values."""
    import numpy as np

    expect = prob["expect"]
    res = {"ok": True, "details": []}

    def fail(msg: str) -> None:
        res["ok"] = False
        res["details"].append(msg)

    if prob["command"] == "classify":
        report = json.loads((out / "report.json").read_text())
        label = report["classification"]
        if label != expect["label"]:
            fail(f"label {label}, expected {expect['label']}")
        if "formula" in expect:
            res["stat_abs_err"] = abs(report["norm_sq_gr"] - expect["formula"])
    elif prob["command"] == "meansquare":
        data = _read_csv(out / "meansq_renewal.csv")
        t, v = data[:, 0], data[:, 1]
        if not np.all(np.isfinite(v)) or np.any(v < 0.0):
            fail("renewal values not finite and nonnegative")
        elif "rate" in expect:
            rel = float(np.abs(v / np.exp(expect["rate"] * t) - 1.0).max())
            res["msq_rel_err"] = rel
            tol = MSQ_REL_TOL * prob["h"] ** 2 * t[-1]
            if rel > tol:
                fail(f"msq_rel_err {rel:.3e} > {tol:.3e}")
    elif prob["command"] == "simulate":
        meta = json.loads((out / "meansq_mc_meta.json").read_text())
        res["diverged_paths"] = meta["diverged_paths"]
        if meta["diverged_paths"] != 0 or not meta["valid"]:
            fail(f"{meta['diverged_paths']} diverged paths")
        data = _read_csv(out / "meansq_mc.csv")
        if not np.all(np.isfinite(data)):
            fail("Monte Carlo estimate not finite")
        z = {}
        for t in Z_TIMES:
            i = round(t / prob["h"])
            z[str(t)] = float((data[i, 1] - reference[i]) / data[i, 2])
        res["z"] = z
        res["z_gated"] = [str(t) for t in expect["z_gate"]]
        res["max_abs_z"] = max(abs(v) for v in z.values())
        for t in expect["z_gate"]:
            if not abs(z[str(t)]) <= Z_LIMIT:
                fail(f"|z| {abs(z[str(t)]):.2f} > {Z_LIMIT} at t={t}")
    return res


def references(cli, plan: dict, work: Path) -> dict:
    """Renewal curves for the simulate problems, computed untimed."""
    refs = {}
    for prob in plan["problems"]:
        if prob["command"] != "simulate":
            continue
        out = work / "ref" / prob["name"]
        rec = invoke(cli, dict(prob, command="meansquare"), out)
        if rec["exit"] != 0:
            raise SystemExit(f"reference renewal run failed for {prob['name']}: {rec}")
        refs[prob["name"]] = _read_csv(out / "meansq_renewal.csv")[:, 1]
    return refs


class Runner:
    """Calls, per-problem checks, and determinism across repeated calls."""

    def __init__(self, cli, plan: dict, work: Path):
        self.cli = cli
        self.plan = plan
        self.work = work
        self.refs = references(cli, plan, work)
        self.calls: list[dict] = []
        self.checks: dict[str, dict] = {}
        self.first_hash: dict[str, dict] = {}

    def one_pass(self, tracer: Tracer | None = None, label: str = "plain") -> list[dict]:
        recs = []
        for prob in self.plan["problems"]:
            out = self.work / "out" / prob["name"]
            rec = invoke(self.cli, prob, out, tracer, len(self.calls))
            rec["pass"] = label
            self.calls.append(rec)
            recs.append(rec)
            name = prob["name"]
            if rec["exit"] != 0:
                continue
            if name not in self.checks:
                self.checks[name] = check(prob, out, self.refs.get(name))
                self.first_hash[name] = rec["sha256"]
            elif rec["sha256"] != self.first_hash[name]:
                rec["mismatch"] = True
        return recs

    def failed_calls(self) -> int:
        bad = 0
        for rec in self.calls:
            ok = rec["exit"] == 0 and not rec.get("mismatch")
            ok &= self.checks.get(rec["problem"], {}).get("ok", False)
            bad += not ok
        return bad


def run(plan: dict, seconds: float, traced: bool) -> dict:
    t0 = time.perf_counter()
    sdde_meansq, cli = _import_package(plan)
    import_s = time.perf_counter() - t0
    work = Path(plan["work"])
    runner = Runner(cli, plan, work)
    record = {"import_s": import_s, "mode": "trace" if traced else "plain"}

    start = time.perf_counter()
    rounds = 0
    passes = []
    while True:
        if traced:
            plain = runner.one_pass(label="untraced")
            tracer = Tracer()
            layers.install(tracer, sdde_meansq)
            try:
                recs = runner.one_pass(tracer, label="traced")
            finally:
                restored = tracer.restore()
            passes.append({
                "untraced_s": sum(r["latency_s"] for r in plain),
                "traced_s": sum(r["latency_s"] for r in recs),
                "restored": restored,
                "absent": tracer.absent,
                "identical": [r["sha256"] for r in plain] == [r["sha256"] for r in recs],
                "layers": layers.metrics(tracer, recs),
                "spans": [s.to_dict() for s in tracer.spans],
            })
        else:
            runner.one_pass()
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / rounds >= seconds:
            break

    record["calls"] = runner.calls
    record["checks"] = runner.checks
    record["failed"] = runner.failed_calls()
    if traced:
        record["trace"] = summarize(passes)
        record["failed"] += sum(
            len(plan["problems"]) for p in passes if not (p["restored"] and p["identical"])
        )
    record["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record["versions"] = versions()
    return record


def summarize(passes: list[dict]) -> dict:
    """Per-layer medians over traced passes, plus the tracing overhead."""
    names = passes[0]["layers"].keys()
    med = {n: statistics.median(p["layers"][n] for p in passes) for n in names}
    med["trace.overhead_s"] = statistics.median(p["traced_s"] for p in passes) - statistics.median(
        p["untraced_s"] for p in passes
    )
    return {
        "layers": med,
        "passes": len(passes),
        "restored": all(p["restored"] for p in passes),
        "identical": all(p["identical"] for p in passes),
        "absent": passes[0]["absent"],
        "shares": layers.shares(med),
        "spans": [dict(s, trace_pass=i) for i, p in enumerate(passes) for s in p["spans"]],
    }


def versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--plan", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    plan = json.loads(Path(args.plan).read_text())
    if args.mode == "setup":
        out = setup(plan)
    else:
        out = run(plan, args.seconds, bool(args.trace))
    Path(args.result).write_text(json.dumps(out, allow_nan=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
