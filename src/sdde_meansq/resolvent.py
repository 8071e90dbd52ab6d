"""Fundamental solution and deterministic solutions of the linear delay equation.

Solves x'(t) = integral of x(t+u) against mu(du) over [-alpha, 0] by the
method of steps with an explicit Heun (trapezoidal predictor-corrector)
integrator on a uniform grid whose step divides alpha, so every history
lookup lands on a grid node and no interpolation is needed.

A Heun step on a linear delay equation is a fixed linear recurrence, so
both traces are one ``quadrature.solve_causal``.  The fundamental solution starts from a unit value at time 0 with zero
history.  That unit jump makes the integrand of the step rule discontinuous
exactly when a point mass of mu crosses time 0; the corrector stage
therefore evaluates left limits at those crossings, which keeps the scheme
second order through the kinks.  The jump enters the recurrence as a known
forcing on the first N steps, read off the right and left limits of
``CompiledFunctional.value_at_unit_jump``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, BAD_VALUE
from .measures import CompiledFunctional, Segment, SignedMeasure
from .quadrature import corrected_trapezoid, exact_divisions, log_linear_fit, solve_causal

#: least-squares envelope slopes flatter than this count as "no trend"
_FLAT_SLOPE = 1e-12


@dataclass(eq=False)
class GridTrace:
    """Real values on the uniform grid 0, h, 2h, ..., T."""

    step: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or self.values.size < 1:
            raise ConfigurationError(BAD_VALUE, "trace needs a 1-d, nonempty value array")

    def times(self) -> np.ndarray:
        t = np.arange(self.values.size, dtype=float)
        t *= self.step
        return t

    def __len__(self) -> int:
        return self.values.size


class HistoryTable:
    """A trace on [0, T] together with its history on [-alpha, 0).

    ``padded`` holds values from time -alpha through T, so the segment at
    grid time t_n is ``padded[n : n + N + 1]``.
    """

    def __init__(self, alpha: float, step: float, padded: np.ndarray):
        self.alpha = alpha
        self.step = step
        self.padded = np.asarray(padded, dtype=float)
        self.n_hist = exact_divisions(alpha, step, "alpha")

    @property
    def trace(self) -> GridTrace:
        return GridTrace(self.step, self.padded[self.n_hist :])


def _heun_recurrence(F: CompiledFunctional) -> tuple[np.ndarray, np.ndarray]:
    """Taps a of one Heun step, x_(n+1) = sum_k a[k] x_(n+1-k), and the weights c.

    With c the weights of ``F`` over segment offsets 0..N and F_n the
    functional on the segment of step n, the step is (1 + h c_N / 2) x_n +
    (h/2)(1 + h c_N) F_n + (h/2) sum_(i<N) c_i x_(n+1+i-N).  Trailing zeros
    are trimmed, so ``mu = b delta_0`` gives a = [0, 1 + h b + (h b)^2 / 2].
    """
    h, N = F.h, F.n_intervals
    c = np.zeros(N + 1) if F.dens_weights is None else F.dens_weights.copy()
    c[list(F.atom_at)] += list(F.atom_at.values())
    taps = 0.5 * h * (1.0 + h * c[N]) * c
    taps[1:] += 0.5 * h * c[:N]
    taps[N] += 1.0 + 0.5 * h * c[N]
    return np.trim_zeros(np.concatenate(([0.0], taps[::-1])), "b"), c


def compute_resolvent(mu: SignedMeasure, h: float, T: float) -> HistoryTable:
    """Fundamental solution of the delay equation driven by ``mu`` on [0, T].

    The history is zero: ``padded`` is 0 before time 0 and ``trace.values[0]`` is 1.
    """
    N = exact_divisions(mu.alpha, h, "alpha")
    steps = exact_divisions(T, h, "horizon")
    F = CompiledFunctional(mu, h)
    a, c = _heun_recurrence(F)
    R = np.zeros(N + steps + 1)
    R[N] = 1.0
    # step n < N: right limit in the predictor, left limit at step n + 1
    right, left = F.value_at_unit_jump(np.zeros(N + 1), 1.0)
    R[N + 1 : 2 * N + 1] = (0.5 * h * ((1.0 + h * c[N]) * right[:N] + left[1:]))[:steps]
    solve_causal(a, R, N + 1)
    return HistoryTable(mu.alpha, h, R)


def deterministic_solution(mu: SignedMeasure, phi: Segment, T: float) -> HistoryTable:
    """Solution of the delay equation with initial segment ``phi`` on [0, T], at phi's step.

    ``padded`` holds ``phi`` up to time 0.
    """
    phi.require_on(mu)
    h, N = phi.step, phi.values.size - 1
    steps = exact_divisions(T, h, "horizon")
    X = np.zeros(N + steps + 1)
    X[: N + 1] = phi.values
    solve_causal(_heun_recurrence(CompiledFunctional(mu, h))[0], X, N + 1)
    return HistoryTable(mu.alpha, h, X)


def _envelope_fit(trace: GridTrace):
    """Exponential trend of the trace tail.

    Returns (rate, envelope_at_T).  The envelope is the running maximum of
    |values| taken from the right, fitted by least squares on a log scale
    over the last quarter of the window.  A decaying envelope gives a
    positive rate.  If that envelope is flat, the running maximum from the
    left is fitted instead so that growing traces report a negative rate.
    A trace that is identically zero on the window has rate +inf.  The fit
    ends at the last normal float: subnormal values read as a flat tail.
    """
    v = np.abs(trace.values)
    if v.size < 8:
        raise ConfigurationError(BAD_VALUE, "the horizon must span at least 7 steps of "
                                 f"h = {trace.step:g}, got {v.size - 1}")
    n = int(np.flatnonzero(v >= np.finfo(float).tiny).max(initial=-1)) + 1
    w0 = 3 * max(n - 1, 0) // 4
    # the fit window's times, and its running maxima from the right
    t = trace.step * np.arange(w0, n, dtype=float)
    suffix = np.maximum.accumulate(v[w0:][::-1])[::-1][: n - w0]

    def fit(env):
        """Slope of log env over the window, and the fitted envelope at T."""
        line = log_linear_fit(t, env)
        if line is None:
            return None, 0.0
        slope, t_mean, l_mean = line
        return slope, math.exp(l_mean + slope * (trace.step * (v.size - 1) - t_mean))

    slope, env_T = fit(suffix)
    if slope is None:
        return math.inf, 0.0
    if slope < -_FLAT_SLOPE:
        return -slope, env_T
    gslope, genv_T = fit(np.maximum.accumulate(v[:n])[w0:])
    if gslope is not None and gslope > _FLAT_SLOPE:
        return -gslope, genv_T
    return 0.0, env_T


def decay_rate_estimate(trace: GridTrace) -> float:
    """Empirical exponential decay rate of a trace.

    Positive when the tail envelope decays, zero when it is flat, negative
    when the trace grows, +inf for an eventually-zero trace.
    """
    rate, _ = _envelope_fit(trace)
    return rate


def l2_norm_sq_tail(trace: GridTrace) -> tuple[float, float]:
    """Squared L2 norm over the window, plus a separate tail estimate.

    The value is the end-corrected trapezoidal integral of the squared
    trace on [0, T].  The tail models the remainder as an exponential with
    the empirically fitted envelope and rate: envelope(T)^2 / (2 rate).  It
    is +inf when no decay is certified, and 0 for an eventually-zero trace.
    The tail is reported, never added to the value.
    """
    value = corrected_trapezoid(trace.values**2, trace.step)
    rate, env_T = _envelope_fit(trace)
    if math.isinf(rate):
        tail = 0.0
    elif rate <= 0.0:
        tail = math.inf
    else:
        tail = env_T * env_T / (2.0 * rate)
    return float(value), tail
