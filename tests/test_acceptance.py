"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from sdde_meansq import (
    CRITICAL,
    SUBCRITICAL,
    SUPERCRITICAL,
    GridTrace,
    RenewalProblem,
    SignedMeasure,
    SimulationConfig,
    aligned_horizon,
    aligned_step,
    analyze,
    classify,
    compute_resolvent,
    deterministic_solution,
    detect_degenerate,
    example_norm_formula,
    g_of_r_trace,
    l2_norm_sq_tail,
    parse_config,
    renewal_mean_square,
    simulate_mean_square,
    simulate_single_path,
    solve_b0,
    solve_kappa_supercritical,
    solve_renewal,
    variation_of_constants_residual,
)
from sdde_meansq.montecarlo import _normal_increments

SQRT2 = math.sqrt(2.0)


def _gate(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _gbm_doc(c: float, h: float = 1e-3, T: float = 20.0, mc: dict | None = None) -> dict:
    num = {"h": h, "T": T}
    if mc:
        num["mc"] = mc
    return {
        "alpha": 1,
        "mu": {"atoms": [[0, -1]]},
        "nu": {"atoms": [[0, c]]},
        "phi": {"constant": 1},
        "numerical": num,
    }


def _two_atom_doc(b, c, d, alpha, h, T, mc=None):
    num = {"h": h, "T": T}
    if mc:
        num["mc"] = mc
    return {
        "alpha": alpha,
        "mu": {"atoms": [[0, b]]},
        "nu": {"atoms": [[0, c], [-alpha, d]]},
        "phi": {"constant": 1},
        "numerical": num,
    }


def _numeric_norm(b, c, d, alpha):
    h = aligned_step(alpha, 1e-3)
    T = aligned_horizon(max(20.0, 12.0 / abs(b)), h)
    mu = SignedMeasure(alpha, atoms=((0.0, b),))
    nu = SignedMeasure(alpha, atoms=((0.0, c), (-alpha, d)))
    r = compute_resolvent(mu, h, T)
    value, tail = l2_norm_sq_tail(g_of_r_trace(r, nu))
    return value, tail, h


def test_criterion_1_norm_formula_reproduction():
    cases = [(-1.0, 1.0, 0.0, 1.0), (-1.0, 0.0, 1.0, 1.0), (-1.0, 1.0, 1.0, math.log(2.0))]
    rng = np.random.default_rng(20250810)
    while len(cases) < 23:
        b = -rng.uniform(0.3, 2.5)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        c, d = sign * rng.uniform(0.0, 1.5), sign * rng.uniform(0.0, 1.5)
        alpha = rng.uniform(0.2, 2.0)
        cases.append((b, c, d, alpha))
    worst = 0.0
    for b, c, d, alpha in cases:
        value, tail, h = _numeric_norm(b, c, d, alpha)
        exact = example_norm_formula(b, c, d, alpha)
        err = abs(value - exact)
        tol = max(1e-4, 5.0 * h * h + tail)
        worst = max(worst, err / tol)
        if err > tol:
            break
    _gate(
        "criterion 1 (norm formula, 23 cases)",
        worst <= 1.0,
        f"worst error/tolerance ratio {worst:.3f}",
    )


def test_criterion_2_stability_boundary():
    c = d = alpha = 1.0
    b_exact = solve_b0(c, d, alpha)

    def is_subcritical(b):
        value, tail, _ = _numeric_norm(b, c, d, alpha)
        return classify(value, tail, band=1e-7) == SUBCRITICAL

    lo, hi = b_exact - 0.3, b_exact + 0.3
    assert is_subcritical(lo) and not is_subcritical(hi)
    while hi - lo > 2e-4:
        mid = 0.5 * (lo + hi)
        if is_subcritical(mid):
            lo = mid
        else:
            hi = mid
    located = 0.5 * (lo + hi)
    err = abs(located - b_exact)
    _gate(
        "criterion 2 (stability boundary crossing)",
        err <= 1e-3,
        f"located {located:.6f} vs closed form {b_exact:.6f}, |diff| {err:.2e}",
    )


def test_criterion_3_gbm_exactness():
    details = []
    ok = True
    for c in (1.0, SQRT2, 2.0):
        rate = -2.0 + c * c
        spec2 = parse_config(json.dumps(_gbm_doc(c, T=2.0)))
        msq = renewal_mean_square(analyze(spec2))
        exact = np.exp(rate * msq.times())
        rel = float(np.abs(msq.values / exact - 1.0).max())
        ok &= rel <= 1e-4
        details.append(f"c={c:.3f} rel err {rel:.2e}")

    spec_crit = parse_config(json.dumps(_gbm_doc(SQRT2, T=20.0)))
    rep_crit = analyze(spec_crit).report
    ok &= rep_crit.classification == CRITICAL
    err_b = abs(rep_crit.limit_constant - 1.0)
    ok &= err_b <= 1e-6
    details.append(f"critical limit err {err_b:.2e}")

    # exponent of the growing case, solved from the exactly sampled kernel
    h = 1e-3
    t = h * np.arange(round(20.0 / h) + 1)
    kappa_oracle = solve_kappa_supercritical(GridTrace(h, 4.0 * np.exp(-2.0 * t)))
    err_k = abs(kappa_oracle - 2.0)
    ok &= err_k <= 1e-8
    details.append(f"kappa (exact kernel) err {err_k:.2e}")

    spec_super = parse_config(json.dumps(_gbm_doc(2.0, T=20.0)))
    rep_super = analyze(spec_super).report
    ok &= rep_super.classification == SUPERCRITICAL
    err_kp = abs(rep_super.kappa - 2.0)
    ok &= err_kp <= 5e-6  # full pipeline carries the integrator's h^2 bias
    err_c = abs(rep_super.limit_constant - 1.0)
    ok &= err_c <= 1e-4
    details.append(f"pipeline kappa err {err_kp:.2e}, limit err {err_c:.2e}")

    _gate("criterion 3 (moment closed forms)", ok, "; ".join(details))


def test_criterion_4_renewal_vs_monte_carlo():
    # The t=2 second moment of the strongest-noise problem (c=2) averages
    # exp(N(-12, 32)) samples under plain sampling, whose mean sits ~5.7
    # sigma into the tail; a plain mean of X^2 with 1e4 paths misses it and
    # its stderr understates the error by orders of magnitude.  The Monte
    # Carlo estimator tilts the drift by twice the lag-0 noise atom and
    # weights by the likelihood ratio, so its stderr bounds its error here.
    # The stderr covers sampling error only: the Euler-Maruyama weak bias is
    # 0.8-1.6 stderr on c=1 and c=sqrt2, which the 2-of-3 rule absorbs.
    h, T = 1e-3, 2.0
    mc_seeds = (101, 202, 303)
    paths = 10_000
    problems = [("gbm c=1", _gbm_doc(1.0, h, T)), ("gbm c=sqrt2", _gbm_doc(SQRT2, h, T)),
                ("gbm c=2", _gbm_doc(2.0, h, T)),
                ("two-atom", _two_atom_doc(-1.0, 0.5, 0.5, 1.0, h, T))]
    t_idx = [round(0.5 / h), round(1.0 / h), round(2.0 / h)]
    details = []
    all_ok = True
    for name, doc in problems:
        spec = parse_config(json.dumps(doc))
        ren = renewal_mean_square(analyze(spec)).values
        passed = 0
        worst = 0.0
        for seed in mc_seeds:
            cfg = SimulationConfig(step=h, horizon=T, path_count=paths, master_seed=seed)
            est = simulate_mean_square(spec.mu, spec.nu, spec.phi_segment(), cfg)
            z = np.abs((est.mean_sq[t_idx] - ren[t_idx]) / est.stderr[t_idx])
            worst = max(worst, float(z.max()))
            passed += int(bool(np.all(z <= 3.0)))
        all_ok &= passed >= 2
        details.append(f"{name}: {passed}/3 seeds, worst |z| {worst:.2f}")
    _gate("criterion 4 (renewal vs Monte Carlo)", all_ok, "; ".join(details))


def test_criterion_5_degenerate_case():
    e = math.e
    doc = {
        "alpha": 1,
        "mu": {"atoms": [[0, -1]]},
        "nu": {"atoms": [[0, -e], [-1, 1]]},
        "phi": {"exponential": -1},
        "numerical": {"h": 1e-3, "T": 20},
    }
    spec = parse_config(json.dumps(doc))
    analysis = analyze(spec)
    rep = analysis.report
    detected = detect_degenerate(spec.mu, spec.nu, spec.phi.sampler(), 1e-3, 20.0)
    max_f = float(np.abs(analysis.forcing.values).max())
    msq = renewal_mean_square(analysis)
    decayed = msq.values[-1] <= 1e-12

    h = 1e-3
    n_paths, n_steps = 300, round(1.0 / h)
    phi_seg = spec.phi_segment()
    ends = np.empty(n_paths)
    for i in range(n_paths):
        dw = _normal_increments(404, i, i + 1, n_steps, h)[:, 0]
        ends[i] = simulate_single_path(spec.mu, spec.nu, phi_seg, h, 1.0, dw).values[-1]
    var_1 = float(np.var(ends, ddof=1))

    ok = (
        detected
        and rep.degenerate
        and max_f <= 1e-12
        and rep.norm_sq_gr > 1.0
        and decayed
        and var_1 <= 1e-4
    )
    _gate(
        "criterion 5 (degenerate instance)",
        ok,
        f"detected={detected}, max forcing {max_f:.2e}, norm_sq {rep.norm_sq_gr:.3f} > 1, "
        f"meansq(T) {msq.values[-1]:.2e}, path variance at t=1 {var_1:.2e}",
    )


def test_criterion_6_convergence_orders():
    mu = SignedMeasure(1.0, atoms=((0.0, -1.0),))
    errs = []
    for h in (4e-3, 2e-3, 1e-3):
        r = compute_resolvent(mu, h, 5.0)
        errs.append(float(np.abs(r.trace.values - np.exp(-r.trace.times())).max()))
    res_orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]

    errs = []
    for h in (4e-3, 2e-3, 1e-3):
        n = round(1.0 / h)
        ones = np.ones(n + 1)
        y = solve_renewal(RenewalProblem(GridTrace(h, ones), GridTrace(h, ones.copy())))
        errs.append(float(np.abs(y.values - np.exp(y.times())).max()))
    ren_orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]

    nu = SignedMeasure(1.0, atoms=((0.0, 1.0),))
    levels = [0.02, 0.01, 0.005, 0.0025]
    h_fine = levels[-1] / 2.0
    dw_fine = _normal_increments(7, 0, 1, round(2.0 / h_fine), h_fine)[:, 0]
    residuals = []
    for h in levels:
        k = round(h / h_fine)
        dw = dw_fine.reshape(-1, k).sum(axis=1)
        phi = parse_config(json.dumps(_gbm_doc(1.0, h, 2.0))).phi_segment()
        rec = simulate_single_path(mu, nu, phi, h, 2.0, dw)
        r = compute_resolvent(mu, h, 2.0)
        x = deterministic_solution(mu, phi, h, 2.0)
        residuals.append(variation_of_constants_residual(rec, r, x))
    voc_order = float(np.polyfit(np.log2(levels), np.log2(residuals), 1)[0])

    ok = min(res_orders) >= 1.9 and min(ren_orders) >= 1.9 and voc_order >= 0.45
    _gate(
        "criterion 6 (convergence orders)",
        ok,
        f"resolvent {[f'{o:.2f}' for o in res_orders]}, "
        f"renewal {[f'{o:.2f}' for o in ren_orders]}, pathwise {voc_order:.2f}",
    )


def test_criterion_7_thread_count_reproducibility(tmp_path):
    doc = _gbm_doc(1.0, h=0.01, T=1.0, mc={"paths": 512, "seed": 31, "workers": 4})
    cfg_path = tmp_path / "prob.json"
    cfg_path.write_text(json.dumps(doc))
    outputs = []
    for threads, sub in (("1", "a"), ("3", "b")):
        env = dict(os.environ, SDDE_MEANSQ_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "sdde_meansq.cli", "simulate",
             "--config", str(cfg_path), "--out", str(tmp_path / sub)],
            env=env,
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append((tmp_path / sub / "meansq_mc.csv").read_bytes())
    identical = outputs[0] == outputs[1]
    _gate(
        "criterion 7 (thread-count reproducibility)",
        identical,
        f"byte-identical CSV across SDDE_MEANSQ_THREADS=1,3 ({len(outputs[0])} bytes)",
    )
