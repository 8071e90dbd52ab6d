"""Linear renewal equation solver and second-moment reconstruction.

The equation y(t) = f(t) + integral of g(s) y(t-s) ds over [0, t] is
discretized with trapezoidal product quadrature.  With the diagonal weight
divided out, that is a causal recurrence in the grid values, solved in
O(n log^2 n) by ``quadrature.solve_causal``.  The second moment of the
stochastic solution is then x(t)^2 plus the trapezoidal convolution of the
squared fundamental solution with y, one ``quadrature.convolve``.

FFT round-off is relative to the largest value in a transform, so both
routes work on exponentially tilted data and multiply the result back by
e^(sigma t).  A common factor e^(-sigma t_n) on every term of the n-th
trapezoid sum is exact algebra, so any sigma gives the same scheme; sigma
only decides which values the round-off is relative to.  The solver tilts
f and g by the kernel's Malthusian exponent (``stability.malthusian_rate``,
the rate at which the end-corrected tilted mass of g equals one, the same
root that gives kappa and theta), so that the tilted solution neither grows
nor decays exponentially.  The second moment tilts r^2 and y by the fitted
exponential rate of y, which is that same exponent on the renewal route and
stays right when y follows a forcing that decays more slowly than the
kernel.  Where e^(sigma t) itself leaves the floating-point range, the
product is formed through logarithms, so values that underflow or overflow
only at the tilt factor stay exact.  A value that leaves the range when
untilted raises NumericalError naming its time.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError, BAD_VALUE, GRID_MISALIGNED, STEP_TOO_LARGE
from .quadrature import convolve, require_finite, require_match, solve_causal, times_exp
from .resolvent import GridTrace, ResolventTable
from .stability import malthusian_rate

#: second moments may round slightly below zero; anything worse aborts
_NEG_TOL = 1e-12


@dataclass(eq=False)
class RenewalProblem:
    """Forcing f and convolution kernel density g on a shared grid."""

    forcing: GridTrace
    kernel: GridTrace

    def __post_init__(self):
        f, g = self.forcing, self.kernel
        require_match(f.step, g.step, GRID_MISALIGNED, "forcing and kernel must share the step")
        if len(f) != len(g):
            raise ConfigurationError(
                GRID_MISALIGNED, "forcing and kernel must share the horizon"
            )
        for name, tr in (("forcing", f), ("kernel", g)):
            lo = tr.values.min()
            if lo < -_NEG_TOL:
                raise ConfigurationError(
                    BAD_VALUE, f"{name} must be nonnegative (min {lo})"
                )
            np.clip(tr.values, 0.0, None, out=tr.values)


def solve_renewal(p: RenewalProblem) -> GridTrace:
    """Solve the discretized renewal equation on tilted data; y(0) = f(0).

    The forcing takes back half of the k = n history term, the trapezoid end weight.
    """
    f = p.forcing.values
    h = p.forcing.step
    diag = 0.5 * h * p.kernel.values[0]
    if diag >= 1.0:
        raise ConfigurationError(
            STEP_TOO_LARGE,
            f"h*g(0)/2 = {diag:.3g} >= 1; reduce the step to resolve the kernel",
        )
    pw = malthusian_rate(p.kernel) * p.forcing.times()
    ft = times_exp(f, -pw)
    gt = times_exp(p.kernel.values, -pw)
    scale = 1.0 / (1.0 - diag)
    yt = scale * (ft - 0.5 * h * gt * ft[0])
    yt[0] = ft[0]
    solve_causal(scale * h * gt, yt, 1)
    # the untilted value must not fall below -_NEG_TOL
    bad = np.flatnonzero(yt < -times_exp(_NEG_TOL, -pw))
    if bad.size:
        raise NumericalError(
            f"renewal solution went negative at step {bad[0]}; "
            "the grid does not resolve the problem"
        )
    np.maximum(yt, 0.0, out=yt)
    return GridTrace(h, require_finite(times_exp(yt, pw), h, "renewal solution"))


def _log_slope(v: np.ndarray, h: float) -> float:
    """Least-squares exponential rate of the positive values of v (0 if fewer than 2)."""
    k = np.flatnonzero(v > 0.0)
    if k.size < 2:
        return 0.0
    t = h * k
    t = t - t.mean()
    return float(np.dot(t, np.log(v[k])) / np.dot(t, t))


def mean_square_trace(x: GridTrace, r: ResolventTable, y: GridTrace) -> GridTrace:
    """Second moment x(t)^2 + (r^2 * y)(t) by trapezoidal convolution.

    The data are tilted by the fitted exponential rate of y, which makes the
    faster-growing factor of the convolution level; on the renewal route
    that rate is the kernel's Malthusian exponent.
    """
    rv = r.trace.values
    h = x.step
    for tr in (r, y):
        require_match(tr.step, h, GRID_MISALIGNED, "traces must share the grid step")
    n_pts = min(x.values.size, rv.size, y.values.size)
    yv = y.values[:n_pts]
    pw = _log_slope(yv, h) * h * np.arange(n_pts)
    rsq = times_exp(np.abs(rv[:n_pts]), -0.5 * pw) ** 2
    yt = times_exp(yv, -pw)
    conv = convolve(rsq, yt, n_pts) - 0.5 * (rsq[0] * yt + rsq * yt[0])
    conv[0] = 0.0
    np.maximum(conv, 0.0, out=conv)
    with np.errstate(over="ignore"):
        out = x.values[:n_pts] ** 2 + times_exp(h * conv, pw)
    return GridTrace(h, require_finite(out, h, "second moment"))
