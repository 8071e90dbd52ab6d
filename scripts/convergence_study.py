#!/usr/bin/env python3
"""Empirical convergence orders of the three numerical kernels.

Prints max-error tables under step halving for: the fundamental-solution
integrator against e^(b t), the renewal solver against y = e^t, and the
pathwise residual of the stochastic convolution representation under
common Brownian refinement.
"""

import math

import numpy as np

from sdde_meansq import (
    GridTrace,
    PhiSpec,
    RenewalProblem,
    SignedMeasure,
    compute_resolvent,
    deterministic_solution,
    solve_renewal,
)
from sdde_meansq.montecarlo import (
    _normal_increments,
    simulate_single_path,
    variation_of_constants_residual,
)


def order_table(title, hs, errs):
    print(title)
    for i, (h, e) in enumerate(zip(hs, errs)):
        order = "" if i == 0 else f"  order {math.log2(errs[i - 1] / e):5.2f}"
        print(f"  h={h:<8g} max err {e:.3e}{order}")


def main() -> int:
    b, T = -1.0, 5.0
    mu = SignedMeasure(1.0, atoms=((0.0, b),))
    hs = [4e-3, 2e-3, 1e-3]
    errs = []
    for h in hs:
        r = compute_resolvent(mu, h, T)
        t = r.trace.times()
        errs.append(float(np.abs(r.trace.values - np.exp(b * t)).max()))
    order_table("resolvent vs exp(b t):", hs, errs)

    errs = []
    for h in hs:
        n = round(1.0 / h)
        ones = GridTrace(h, np.ones(n + 1))
        y = solve_renewal(RenewalProblem(ones, GridTrace(h, np.ones(n + 1))))
        t = y.times()
        errs.append(float(np.abs(y.values - np.exp(t)).max()))
    order_table("renewal vs exp(t):", hs, errs)

    nu = SignedMeasure(1.0, atoms=((0.0, 1.0),))
    hs = [0.02, 0.01, 0.005, 0.0025]
    h_fine = hs[-1] / 2
    dw_fine = _normal_increments(7, 0, 1, round(2.0 / h_fine), h_fine)[:, 0]
    errs = []
    for h in hs:
        k = round(h / h_fine)
        dw = dw_fine.reshape(-1, k).sum(axis=1)
        phi = PhiSpec("constant", value=1.0).expand(1.0, h)
        rec = simulate_single_path(mu, nu, phi, dw)
        r = compute_resolvent(mu, h, 2.0)
        x = deterministic_solution(mu, phi, 2.0)
        errs.append(variation_of_constants_residual(rec, r, x))
    order_table("stochastic-convolution residual (common refinement):", hs, errs)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
