"""End-to-end orchestration: analysis, renewal reconstruction, file artifacts."""

import contextlib
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ._g17 import g17_rows
from .config import ProblemSpec, _named, config_hash
from .errors import ConfigurationError, NumericalError, SCHEMA_INVALID
from .montecarlo import MomentEstimate, simulate_mean_square
from .quadrature import require_finite
from .renewal import RenewalProblem, mean_square_trace, solve_renewal
from .resolvent import (
    GridTrace,
    HistoryTable,
    compute_resolvent,
    decay_rate_estimate,
    deterministic_solution,
    l2_norm_sq_tail,
)
from .stability import (
    CRITICAL,
    DEGENERATE,
    SUBCRITICAL,
    SUPERCRITICAL,
    UNCERTIFIED,
    StabilityReport,
    classify,
    detect_degenerate,
    g_of_r_trace,
    kernel_first_moment,
    limit_constant,
    solution_functional_trace,
    solve_kappa_supercritical,
    solve_theta_subcritical,
)


@dataclass(eq=False)
class Analysis:
    """Everything the pipeline computes for one problem."""

    report: StabilityReport
    r: HistoryTable
    x: HistoryTable
    kernel: GridTrace
    forcing: GridTrace


def analyze(spec: ProblemSpec) -> Analysis:
    """Resolvent, statistic, classification, exponents, and limit constants."""
    h, T = spec.h, spec.T
    r = compute_resolvent(spec.mu, h, T)
    phi_seg = spec.phi_segment()
    x = deterministic_solution(spec.mu, phi_seg, T)
    with np.errstate(over="ignore"):
        require_finite(r.trace.values**2, h, "squared resolvent r^2")
        gr = g_of_r_trace(r, spec.nu)
        kernel = GridTrace(h, require_finite(gr.values**2, h, "noise kernel G(r_s)^2"))
        gx = solution_functional_trace(x, spec.nu)
        forcing = GridTrace(h, require_finite(gx.values**2, h, "forcing G(x_t)^2"))
    rho = _named("numerical.T", decay_rate_estimate, r.trace)
    norm_sq, trunc = l2_norm_sq_tail(gr)
    # the problem is linear: a generator v e^(g u) is scanned as sign(v) e^(g (u + alpha/2) - c),
    # free of v's scale; c lowers a peak beyond e^700 to e^700, and the far end underflows
    phi, g = spec.phi, spec.phi.rate
    c = max(0.0, 0.5 * abs(g) * spec.alpha - 700.0)
    unit = lambda u: np.sign(phi.value) * np.exp(g * (u + 0.5 * spec.alpha) - c)
    degenerate = detect_degenerate(
        spec.mu, spec.nu, phi_seg if phi.kind == "samples" else unit, h, T
    )
    certified = rho > 0.0 and math.isfinite(trunc)
    if degenerate:
        label = DEGENERATE
    elif not certified:
        label = UNCERTIFIED
    else:
        label = classify(norm_sq, trunc, spec.band)
    report = StabilityReport(
        norm_sq_gr=norm_sq,
        classification=label,
        decay_rate=rho,
        truncation_error=trunc,
        degenerate=degenerate,
    )
    if label == SUBCRITICAL:
        report.theta, report.rate_bound = solve_theta_subcritical(kernel, rho)
    elif label in (CRITICAL, SUPERCRITICAL):
        # the critical limit is the growth-case constant at rate 0
        rate = solve_kappa_supercritical(kernel) if label == SUPERCRITICAL else 0.0
        moment = kernel_first_moment(kernel, rate)
        if label == SUPERCRITICAL:
            report.kappa, report.m_kappa_zeta = rate, moment
        else:
            report.m_zeta = moment
        report.limit_constant = limit_constant(forcing, r, kernel, rate)
    elif label == DEGENERATE and certified:
        report.limit_constant = 0.0
    return Analysis(report, r, x, kernel, forcing)


def renewal_mean_square(analysis: Analysis) -> GridTrace:
    """Second moment via the renewal route.

    A certified-degenerate instance has forcing that is zero up to
    discretization bias; the bias would be amplified exponentially whenever
    the kernel mass exceeds one, so the forcing is zeroed and the second
    moment reduces to the squared deterministic trajectory.
    """
    forcing = analysis.forcing
    if analysis.report.degenerate:
        forcing = GridTrace(forcing.step, np.zeros_like(forcing.values))
    y = solve_renewal(RenewalProblem(forcing, analysis.kernel))
    return mean_square_trace(analysis.x.trace, analysis.r, y)


def monte_carlo_mean_square(spec: ProblemSpec) -> MomentEstimate:
    if spec.mc is None:
        raise ConfigurationError(
            SCHEMA_INVALID,
            "no Monte Carlo settings: add numerical.mc",
            field="numerical.mc",
        )
    return simulate_mean_square(spec.mu, spec.nu, spec.phi_segment(), spec.mc, spec.T)


#: ``emit_csv`` formats and writes this many rows at a time
_CSV_ROWS = 4096


def emit_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """Fixed column order, 17 significant digits, LF line endings.

    Each value is written as ``"%.17g" % x`` writes it.  The text comes from
    numpy digit generation (``_g17.g17_rows``), which falls back to ``%``
    for the values whose rounding its double-double product cannot decide.

    The first column holds the times.  A non-finite value in any column is
    a NumericalError naming its time, and then no file is written.
    """
    times = columns[0]
    step = times[1] - times[0] if times.size > 1 else 0.0
    for name, col in zip(header, columns):
        require_finite(col, step, f"{path.name} column {name}")
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for lo in range(0, times.size, _CSV_ROWS):
            values = np.stack([col[lo : lo + _CSV_ROWS] for col in columns], axis=1)
            fh.write(g17_rows(values))


def emit_json(path: Path, doc: dict) -> None:
    """Indent 2, LF line endings, one trailing newline."""
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def report_document(spec: ProblemSpec, report: StabilityReport) -> dict:
    doc = asdict(report)
    doc["inputs"] = {
        "config_hash": config_hash(spec),
        "alpha": spec.alpha,
        "h": spec.h,
        "T": spec.T,
        "band": spec.band,
    }
    return doc


COMMANDS = ("classify", "resolvent", "meansquare", "simulate", "compare")


def run_pipeline(spec: ProblemSpec, commands: set[str], out_dir: str = ".") -> int:
    """Run the requested stages, writing artifacts into out_dir.

    Returns the exit code: 0 on success, 2 when a classification came back
    UNCERTIFIED.  Configuration and numerical errors propagate to the
    caller; partially written artifacts are removed, and so are the
    directories of out_dir that the call created, when left empty.
    Diverged Monte Carlo paths are a numerical error, so no estimate they
    poisoned is written.
    """
    unknown = set(commands) - set(COMMANDS)
    if unknown:
        raise ValueError(f"unknown commands: {sorted(unknown)}")
    out = Path(out_dir)
    created = [d for d in (out, *out.parents) if not d.exists()]  # deepest first
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    analysis = None
    renewal_msq = None
    estimate = None
    uncertified = False

    def track(name: str) -> Path:
        p = out / name
        written.append(p)
        return p

    try:
        if commands & {"classify", "meansquare", "compare"}:
            analysis = analyze(spec)
        if "classify" in commands:
            emit_json(track("report.json"), report_document(spec, analysis.report))
            uncertified = analysis.report.classification == UNCERTIFIED
        if "resolvent" in commands:
            r = analysis.r if analysis else compute_resolvent(spec.mu, spec.h, spec.T)
            tr = r.trace
            values = require_finite(tr.values, spec.h, "resolvent r")
            emit_csv(track("resolvent.csv"), ["t", "value"], [tr.times(), values])
        if commands & {"meansquare", "compare"}:
            renewal_msq = renewal_mean_square(analysis)
        if "meansquare" in commands:
            emit_csv(
                track("meansq_renewal.csv"),
                ["t", "value"],
                [renewal_msq.times(), renewal_msq.values],
            )
        if commands & {"simulate", "compare"}:
            estimate = monte_carlo_mean_square(spec)
            if not estimate.valid:
                raise NumericalError(
                    f"{estimate.diverged_paths} of {estimate.path_count} Monte Carlo "
                    "paths diverged; shorten the horizon T"
                )
        if "simulate" in commands:
            emit_csv(
                track("meansq_mc.csv"),
                ["t", "mean_sq", "stderr"],
                [estimate.times(), estimate.mean_sq, estimate.stderr],
            )
            meta = {
                "seed": estimate.master_seed,
                "paths": estimate.path_count,
                "h": spec.h,
                "T": spec.T,
                "tilt": estimate.tilt,
                "diverged_paths": estimate.diverged_paths,
                "max_path_share": estimate.max_path_share,
                "valid": estimate.valid,
                "config_hash": config_hash(spec),
            }
            emit_json(track("meansq_mc_meta.json"), meta)
        if "compare" in commands:
            ren = renewal_msq.values
            mc = estimate.mean_sq
            se = estimate.stderr
            diff = mc - ren
            # a non-finite route is reported by emit_csv, column by column
            undefined = np.flatnonzero((se == 0.0) & (diff != 0.0) & np.isfinite(diff))
            if undefined.size:
                raise NumericalError(
                    "the Monte Carlo standard error is 0 at t = "
                    f"{undefined[0] * spec.h:.6g} while the routes differ there, "
                    "so z is undefined"
                )
            with np.errstate(divide="ignore", invalid="ignore"):
                z = np.where(se > 0.0, diff / se, 0.0)
            emit_csv(
                track("compare.csv"),
                ["t", "meansq_renewal", "meansq_mc", "mc_stderr", "z"],
                [renewal_msq.times(), ren, mc, se, z],
            )
    except BaseException:
        for p in written:
            p.unlink(missing_ok=True)
        for d in created:
            with contextlib.suppress(OSError):  # kept when not empty
                d.rmdir()
        raise
    return 2 if uncertified else 0
