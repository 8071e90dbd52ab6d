"""Wrap targets and per-layer metrics of the traced run.

Every target is an attribute that one of the package's modules looks up at
call time, so replacing it on the module (or class) that does the lookup
records each call without touching the package.  Layer names are the
package's module names.

Times named ``*_s`` are wall time inside the layer's calls, summed over
threads.  ``montecarlo.rng_busy_s``, ``montecarlo.step_busy_s`` and
``montecarlo.parallel_eff`` use the threads' on-CPU time instead, so that
waiting for the interpreter lock does not count as busy.
"""

import functools
import math
import os
from collections import defaultdict

from tracer import Tracer, self_time


def _heun_steps(span, args, result):
    span.attrs["steps"] = result.padded.size - result.n_hist - 1


def _grid_points(span, args, result):
    span.attrs["points"] = result.values.size


def _csv_bytes(span, args, result):
    span.attrs["bytes"] = os.path.getsize(args[0])


def _simulate(span, args, result, chunk):
    cfg = args[3]
    chunks = math.ceil(cfg.path_count / chunk)
    workers = min(cfg.worker_count, chunks)
    cap = os.environ.get("SDDE_MEANSQ_THREADS", "")
    if cap.isdigit():
        workers = min(workers, max(1, int(cap)))
    span.attrs.update(workers=workers, diverged=result.diverged_paths)


def _chunk(span, args, result):
    phi_values, n_steps, lo, hi = args[2], args[3], args[6], args[7]
    m = hi - lo
    span.attrs["path_steps"] = m * n_steps
    # the chunk's path array (history + steps) and its increment array
    span.attrs["bytes"] = 8 * m * (phi_values.size + n_steps) + 8 * m * n_steps


def _targets(pkg):
    cli, pipeline, stability = pkg.cli, pkg.pipeline, pkg.stability
    resolvent, montecarlo = pkg.resolvent, pkg.montecarlo
    functional = getattr(pkg.measures, "CompiledFunctional", None)
    return [
        (cli, "main", "cli.main", "span", None),
        (cli, "parse_config", "config.parse", "span", None),
        (cli, "run_pipeline", "pipeline.run", "span", None),
        (pipeline, "emit_csv", "pipeline.emit_csv", "span", _csv_bytes),
        (pipeline, "compute_resolvent", "resolvent.compute_resolvent", "span", _heun_steps),
        (pipeline, "deterministic_solution", "resolvent.deterministic_solution", "span",
         _heun_steps),
        (stability, "deterministic_solution", "resolvent.deterministic_solution", "span",
         _heun_steps),
        (resolvent, "_envelope_fit", "resolvent.envelope_fit", "span", None),
        (pipeline, "g_of_r_trace", "stability.g_of_r", "span", None),
        (pipeline, "detect_degenerate", "stability.detect_degenerate", "span", None),
        (pipeline, "solve_theta_subcritical", "stability.tilt_solve", "span", None),
        (pipeline, "solve_kappa_supercritical", "stability.tilt_solve", "span", None),
        (stability, "tilted_kernel_mass", "stability.tilted_mass", "count", None),
        (functional, "value_vec", "measures.value_vec", "time", None),
        (functional, "value_at_unit_jump", "measures.unit_jump", "count", None),
        (pipeline, "solve_renewal", "renewal.solve", "span", _grid_points),
        (pipeline, "mean_square_trace", "renewal.mean_square", "span", _grid_points),
        (pipeline, "simulate_mean_square", "montecarlo.simulate", "span",
         functools.partial(_simulate, chunk=getattr(montecarlo, "CHUNK", 2048))),
        (montecarlo, "_simulate_chunk", "montecarlo.chunk", "span", _chunk),
        (montecarlo, "_normal_increments", "montecarlo.rng", "span", None),
    ]


def install(tracer: Tracer, pkg) -> None:
    for owner, attr, name, kind, hook in _targets(pkg):
        if owner is None:
            tracer.absent.append(name)
            continue
        tracer.wrap(owner, attr, name, kind, hook)


#: metric -> (unit, wrap targets it needs)
METRICS = {
    "config.parse_s": ("s", {"config.parse"}),
    "cli.self_s": ("s", {"cli.main", "config.parse", "pipeline.run"}),
    "cli.exit_nonzero": ("count", set()),
    "pipeline.emit_csv_s": ("s", {"pipeline.emit_csv"}),
    "pipeline.csv_bytes": ("bytes", {"pipeline.emit_csv"}),
    "resolvent.compute_resolvent_s": ("s", {"resolvent.compute_resolvent"}),
    "resolvent.deterministic_solution_s": ("s", {"resolvent.deterministic_solution"}),
    "resolvent.envelope_fit_s": ("s", {"resolvent.envelope_fit"}),
    "resolvent.heun_steps": ("count", {"resolvent.compute_resolvent",
                                       "resolvent.deterministic_solution"}),
    "stability.g_of_r_s": ("s", {"stability.g_of_r"}),
    "stability.detect_degenerate_s": ("s", {"stability.detect_degenerate"}),
    "stability.degenerate_full_scans": ("count", {"stability.detect_degenerate",
                                                  "resolvent.deterministic_solution"}),
    "stability.tilt_solve_s": ("s", {"stability.tilt_solve"}),
    "stability.tilted_mass_evals": ("count", {"stability.tilted_mass"}),
    "measures.value_vec_s": ("s", {"measures.value_vec"}),
    "measures.value_vec_calls": ("count", {"measures.value_vec"}),
    "measures.unit_jump_calls": ("count", {"measures.unit_jump"}),
    "renewal.solve_s": ("s", {"renewal.solve"}),
    "renewal.mean_square_s": ("s", {"renewal.mean_square"}),
    "renewal.mac_ops": ("count", {"renewal.solve", "renewal.mean_square"}),
    "montecarlo.simulate_s": ("s", {"montecarlo.simulate"}),
    "montecarlo.rng_busy_s": ("s", {"montecarlo.rng"}),
    "montecarlo.step_busy_s": ("s", {"montecarlo.chunk", "montecarlo.rng"}),
    "montecarlo.path_steps": ("count", {"montecarlo.chunk"}),
    "montecarlo.chunks": ("count", {"montecarlo.chunk"}),
    "montecarlo.parallel_eff": ("ratio", {"montecarlo.simulate", "montecarlo.chunk"}),
    "montecarlo.diverged_paths": ("count", {"montecarlo.simulate"}),
    "montecarlo.chunk_bytes": ("bytes", {"montecarlo.chunk"}),
}


def metrics(tracer: Tracer, calls: list[dict]) -> dict:
    """Per-layer metrics of one traced pass; metrics of absent targets are left out."""
    spans = tracer.spans
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        children[s.parent].append(s)
    ids = {s.id: s for s in spans}

    def dur(name):
        return sum(s.duration for s in by_name[name])

    def cpu(name):
        return sum(s.cpu for s in by_name[name])

    def attr(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name[name])

    def total(name, i):
        return tracer.totals.get(name, (0.0, 0))[i]

    sim_capacity = sum(s.duration * s.attrs.get("workers", 1) for s in by_name["montecarlo.simulate"])
    chunk_busy = cpu("montecarlo.chunk")
    grid = by_name["renewal.solve"] + by_name["renewal.mean_square"]
    values = {
        "config.parse_s": dur("config.parse"),
        "cli.self_s": sum(self_time(s, children[s.id]) for s in by_name["cli.main"]),
        "cli.exit_nonzero": sum(1 for c in calls if c["exit"] != 0),
        "pipeline.emit_csv_s": dur("pipeline.emit_csv"),
        "pipeline.csv_bytes": attr("pipeline.emit_csv", "bytes"),
        "resolvent.compute_resolvent_s": dur("resolvent.compute_resolvent"),
        "resolvent.deterministic_solution_s": dur("resolvent.deterministic_solution"),
        "resolvent.envelope_fit_s": dur("resolvent.envelope_fit"),
        "resolvent.heun_steps": attr("resolvent.compute_resolvent", "steps")
        + attr("resolvent.deterministic_solution", "steps"),
        "stability.g_of_r_s": dur("stability.g_of_r"),
        "stability.detect_degenerate_s": dur("stability.detect_degenerate"),
        "stability.degenerate_full_scans": sum(
            1
            for s in by_name["resolvent.deterministic_solution"]
            if s.parent in ids and ids[s.parent].name == "stability.detect_degenerate"
        ),
        "stability.tilt_solve_s": dur("stability.tilt_solve"),
        "stability.tilted_mass_evals": total("stability.tilted_mass", 1),
        "measures.value_vec_s": total("measures.value_vec", 0),
        "measures.value_vec_calls": total("measures.value_vec", 1),
        "measures.unit_jump_calls": total("measures.unit_jump", 1),
        "renewal.solve_s": dur("renewal.solve"),
        "renewal.mean_square_s": dur("renewal.mean_square"),
        "renewal.mac_ops": sum(
            s.attrs.get("points", 0) * (s.attrs.get("points", 0) - 1) // 2 for s in grid
        ),
        "montecarlo.simulate_s": dur("montecarlo.simulate"),
        "montecarlo.rng_busy_s": cpu("montecarlo.rng"),
        "montecarlo.step_busy_s": chunk_busy - cpu("montecarlo.rng"),
        "montecarlo.path_steps": attr("montecarlo.chunk", "path_steps"),
        "montecarlo.chunks": len(by_name["montecarlo.chunk"]),
        "montecarlo.parallel_eff": chunk_busy / sim_capacity if sim_capacity else 0.0,
        "montecarlo.diverged_paths": attr("montecarlo.simulate", "diverged"),
        "montecarlo.chunk_bytes": max(
            (s.attrs.get("bytes", 0) for s in by_name["montecarlo.chunk"]), default=0
        ),
    }
    values["wall.resolvent+stability"] = sum(
        self_time(s, children[s.id])
        for s in spans
        if s.name.startswith(("resolvent.", "stability."))
    )
    values["wall.rng"] = dur("montecarlo.rng")
    values["wall.step"] = dur("montecarlo.chunk") - dur("montecarlo.rng")
    values["wall.total"] = (
        sum(s.duration for s in by_name["cli.main"])
        - dur("montecarlo.simulate")
        + dur("montecarlo.chunk")
    )
    absent = set(tracer.absent)
    return {
        k: v for k, v in values.items() if not (METRICS.get(k, ("", set()))[1] & absent)
    }


def shares(m: dict) -> dict:
    """Share of wall time, summed over threads, per candidate dominant layer."""
    parts = {
        "resolvent+stability": m.get("wall.resolvent+stability"),
        "renewal": m.get("renewal.solve_s", 0.0) + m.get("renewal.mean_square_s", 0.0),
        "montecarlo.rng": m.get("wall.rng"),
        "measures.value_vec": m.get("measures.value_vec_s"),
        "montecarlo.step": m.get("wall.step", 0.0) - m.get("measures.value_vec_s", 0.0),
        "pipeline.emit_csv": m.get("pipeline.emit_csv_s"),
    }
    total = m.get("wall.total") or 0.0
    return {k: v / total for k, v in parts.items() if v is not None and total > 0.0}
