"""Mean-square stability statistic, trichotomy classification, and exponents.

The classification hinges on the squared L2 norm of s -> G(r_s), the
diffusion functional applied to history segments of the fundamental
solution.  Mass below 1 gives exponential decay of the second moment, mass
1 a finite nonzero limit, mass above 1 exponential growth with a Malthusian
rate; an initial segment that the diffusion functional annihilates along
the whole deterministic flow degenerates to the deterministic trajectory no
matter the statistic.

One root serves every rate: the Malthusian exponent sigma at which the
end-corrected mass of e^(-sigma s) G(r_s)^2 is one (``malthusian_rate``).
It is kappa above mass one, -theta below it, and the renewal solver's tilt;
the mass-one limit is the growth-case limit constant at rate 0.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ALPHA_MISMATCH, GRID_MISALIGNED
from .measures import CompiledFunctional, Segment, SignedMeasure, total_variation
from .quadrature import (
    corrected_trapezoid, exact_divisions, require_match, require_positive, times_exp,
)
from .resolvent import GridTrace, HistoryTable, deterministic_solution

SUBCRITICAL = "SUBCRITICAL"
CRITICAL = "CRITICAL"
SUPERCRITICAL = "SUPERCRITICAL"
DEGENERATE = "DEGENERATE"
UNCERTIFIED = "UNCERTIFIED"

#: relative scale below which G(x_t) counts as identically zero
DEGENERACY_TOL = 1e-8
#: target number of segment intervals for the degeneracy scan grid
_DETECT_NODES = 8192
#: cap on theta, as a fraction of twice the decay rate
_THETA_CAP = 0.95

_ROOT_RTOL = 1e-12
_MAX_ITER = 200


@dataclass
class StabilityReport:
    """Classification of the second-moment asymptotics of one problem."""

    norm_sq_gr: float
    classification: str
    decay_rate: float
    truncation_error: float
    degenerate: bool
    theta: float | None = None
    kappa: float | None = None
    m_zeta: float | None = None
    m_kappa_zeta: float | None = None
    limit_constant: float | None = None
    rate_bound: float | None = None


def g_of_r_trace(r: HistoryTable, nu: SignedMeasure) -> GridTrace:
    """Trace s -> G(r_s) of the diffusion functional along resolvent segments.

    The unit jump of the resolvent history at time 0 makes the trace jump
    wherever a point mass of nu crosses time 0.  At those grid nodes the
    stored value is the root mean square of the one-sided limits, so that
    trapezoidal integrals of the squared trace (the renewal kernel and all
    tilted masses) stay second-order accurate through the jumps.  Elsewhere
    the value is the right limit.  Both limits come from the resolvent's own
    jump-at-0 rule, ``CompiledFunctional.value_at_unit_jump``.
    """
    require_match(nu.alpha, r.alpha, ALPHA_MISMATCH, "measure alpha != resolvent alpha")
    F = CompiledFunctional(nu, r.step)
    out, left = F.value_at_unit_jump(F.trace(r.padded), r.padded[F.n_intervals])
    n = np.flatnonzero(left[1:] != out[1:]) + 1
    lo, hi = left[n], out[n]
    out[n] = np.copysign(np.sqrt(0.5 * (lo * lo + hi * hi)), np.where(hi != 0.0, hi, lo))
    return GridTrace(r.step, out)


def solution_functional_trace(x: HistoryTable, nu: SignedMeasure) -> GridTrace:
    """Trace t -> G(x_t) of the diffusion functional along a solution."""
    require_match(nu.alpha, x.alpha, ALPHA_MISMATCH, "measure alpha != solution alpha")
    F = CompiledFunctional(nu, x.step)
    return GridTrace(x.step, F.trace(x.padded))


def classify(norm_sq: float, truncation_error: float, band: float | None = None) -> str:
    """Trichotomy decision with a finite-precision band around mass 1.

    The default band covers three truncation errors.  A given band is kept
    as it is, so a statistic past it by no more than three truncation errors
    could lie on either side of it: that is UNCERTIFIED.  So is a statistic
    that is not finite, and a truncation error that is negative or not finite.
    """
    if band is not None:
        require_positive(band, "band")
    if not (math.isfinite(norm_sq) and 0.0 <= truncation_error < math.inf):
        return UNCERTIFIED
    margin = 3.0 * truncation_error
    if band is None:
        band, margin = max(1e-3, margin), 0.0
    if band < abs(norm_sq - 1.0) <= band + margin:
        return UNCERTIFIED
    if norm_sq < 1.0 - band:
        return SUBCRITICAL
    if norm_sq > 1.0 + band:
        return SUPERCRITICAL
    return CRITICAL


def tilted_kernel_mass(g: GridTrace, rate: float) -> float:
    """Integral of e^(-rate*s) g(s) over the window, end-corrected."""
    return corrected_trapezoid(times_exp(g.values, -rate * g.times()), g.step)


def kernel_first_moment(g: GridTrace, rate: float) -> float:
    """Integral of s e^(-rate*s) g(s) over the window: the tilted mass of s*g."""
    return tilted_kernel_mass(GridTrace(g.step, g.times() * g.values), rate)


def malthusian_rate(g: GridTrace) -> float:
    """Malthusian exponent: the sigma at which ``tilted_kernel_mass(g, sigma)`` is one.

    Returns 0 when the kernel has no mass past s = 0, and raises
    NumericalError when no root exists because the weight of s = 0 alone
    gives mass one or more.  Every weight of the end-corrected rule exceeds
    h/3, so the mass is at least one where the largest term h g(s_k)
    e^(-sigma s_k) / 3 past s = 0 equals one.  Newton's method on log M,
    which is convex and decreasing, climbs from there to the root
    monotonically.  Each mass is evaluated as e^a times the corrected sum of
    e^(log g - sigma s - a), a the largest exponent, so no tilted term
    exceeds one at any sigma.
    """
    v, h, s = g.values, g.step, g.times()
    if corrected_trapezoid(np.where(s > 0.0, 0.0, v), h) >= 1.0:
        raise NumericalError("failed to bracket the tilt rate")
    k = np.flatnonzero(v[1:] > 0.0) + 1
    if k.size == 0:
        return 0.0
    with np.errstate(divide="ignore"):
        log_v = np.log(v)
    sigma = float(np.max((log_v[k] + math.log(h / 3.0)) / s[k]))
    # every step writes its exponent, then weight, into w and s * w into sw
    w, sw = np.empty_like(v), np.empty_like(v)
    for _ in range(_MAX_ITER):
        np.subtract(log_v, np.multiply(sigma, s, out=w), out=w)
        top = w.max()
        w -= top
        np.exp(w, out=w)
        np.multiply(s, w, out=sw)
        mass, moment = corrected_trapezoid(w, h), corrected_trapezoid(sw, h)
        step = (top + math.log(mass)) * mass / moment
        sigma += step
        # every exact step is positive; a smaller one is round-off
        if step <= _ROOT_RTOL * max(1.0, abs(sigma)):
            return float(sigma)
    raise NumericalError("failed to bracket the tilt rate")


def solve_kappa_supercritical(g: GridTrace) -> float:
    """Growth rate kappa: the Malthusian exponent of a kernel of mass above one."""
    if tilted_kernel_mass(g, 0.0) <= 1.0:
        raise NumericalError("kernel mass is not above one; no positive tilt rate exists")
    return malthusian_rate(g)


def solve_theta_subcritical(g: GridTrace, rho: float) -> tuple[float | None, float]:
    """Decay rate theta = -sigma of a kernel of mass below one, sigma its Malthusian exponent.

    Theta is capped at 0.95 * (2 rho) because beyond that the truncated
    quadrature of the growing integrand is unreliable.  Returns (theta,
    rate_bound); theta is None when it lies past the cap or the kernel has
    no mass past s = 0, in which case the bound is the cap itself.
    """
    if rho <= 0.0:
        raise NumericalError("no certified decay rate; cannot search for a tilt rate")
    if tilted_kernel_mass(g, 0.0) >= 1.0:
        raise NumericalError("kernel mass is not below one")
    cap = _THETA_CAP * 2.0 * rho
    theta = -malthusian_rate(g)
    if not 0.0 < theta <= cap:
        return None, cap
    return theta, theta


def limit_constant(f: GridTrace, r: HistoryTable, g: GridTrace, rate: float) -> float:
    """Limit of e^(-rate t) times the second moment.

    ``rate`` is kappa when the kernel mass exceeds one and 0 when it is one.
    """
    for trace in (f, g):
        require_match(trace.step, r.step, GRID_MISALIGNED, "trace step != resolvent step")
    m = kernel_first_moment(g, rate)
    if m <= 0.0:
        raise NumericalError(f"tilted kernel first moment {m:.3e} is not positive")
    rtr = r.trace
    num_r = tilted_kernel_mass(GridTrace(rtr.step, rtr.values**2), rate)
    return tilted_kernel_mass(f, rate) * num_r / m


def detect_degenerate(
    mu: SignedMeasure, nu: SignedMeasure, phi, h: float, T: float
) -> bool:
    """Whether the diffusion functional vanishes along the deterministic flow.

    ``phi`` is either a sampled Segment or a callable mapping an array of
    times in [-alpha, 0] to initial values.  With a callable the scan runs
    on an internally refined grid (the initial segment is resampled
    exactly), keeping the integrator bias below the detection threshold;
    sampled segments are scanned at their own step, which bounds how small
    a residual can be certified.

    True iff every |G(x_t)| over the scan window is below DEGENERACY_TOL
    relative to the total variation of nu times the scale of x around t: the
    largest |x| over the two aligned blocks of N + 1 values that hold the
    segment x_t.  So a solution that is large only early on does not hide a
    later G(x_t).  That bound underflows for a subnormal phi, so
    ``pipeline.analyze`` passes a generator phi at a fixed scale.
    Exits early with False when already |G(phi)| exceeds its scale.
    """
    alpha = mu.alpha
    if callable(phi):
        n_seg = exact_divisions(alpha, h, "alpha")
        k = max(1, -(-_DETECT_NODES // n_seg)) if n_seg else 1
        h_det = h / k
        phi_seg = Segment.sample(alpha, h_det, phi)
    else:
        phi_seg = phi
        h_det = phi.step
    tv = total_variation(nu)
    G = CompiledFunctional(nu, h_det)
    g_phi = G.value_vec(phi_seg.values, 0)
    if abs(g_phi) > DEGENERACY_TOL * tv * float(np.abs(phi_seg.values).max()):
        return False
    steps = round(T / h_det)
    x = deterministic_solution(mu, phi_seg, steps * h_det)
    g_trace = G.trace(x.padded)
    # segment t lies in blocks t // B and t // B + 1 of the padded history
    B = G.n_intervals + 1
    g_max = np.maximum.reduceat(np.abs(g_trace), np.arange(0, g_trace.size, B))
    x_max = np.maximum.reduceat(np.abs(x.padded), np.arange(0, x.padded.size, B))
    x_max = np.maximum(x_max, np.append(x_max[1:], 0.0))[: g_max.size]
    return bool(np.all(g_max <= DEGENERACY_TOL * tv * x_max))


def example_norm_formula(b: float, c: float, d: float, alpha: float) -> float:
    """Closed-form squared statistic for drift b*x(t) and noise c*x(t)+d*x(t-alpha)."""
    if b >= 0.0:
        raise ValueError(f"requires b < 0, got {b}")
    return (c * c + d * d + 2.0 * c * d * math.exp(b * alpha)) / (-2.0 * b)


def delayed_drift_norm_formula(a: float, b: float) -> float:
    """Closed-form integral of r(t)^2 over [0, inf) for drift a*x(t) + b*x(t-1).

    Kuechler and Mensch (Stochastics Stochastics Rep. 40, 1992), with
    lam = sqrt(|a^2 - b^2|); hyperbolic for |b| < |a|, trigonometric for
    |b| > |a|.  The noise c*x(t) gives the statistic c^2 times this value.
    Valid where the drift is stable, which needs a + b < 0.
    """
    if a + b >= 0.0:
        raise ValueError(f"requires a + b < 0, got a={a}, b={b}")
    lam = math.sqrt(abs(a * a - b * b))
    if abs(b) < abs(a):
        return (b * math.sinh(lam) - lam) / (2.0 * lam * (a + b * math.cosh(lam)))
    if abs(b) > abs(a):
        return (b * math.sin(lam) - lam) / (2.0 * lam * (a + b * math.cos(lam)))
    return (b - 1.0) / (2.0 * (a + b))


def solve_b0(c: float, d: float, alpha: float) -> float:
    """Largest real root of c^2 + d^2 + 2 c d e^(b alpha) + 2 b in b.

    This is the drift value at which the closed-form statistic crosses one:
    drifts below it are mean-square stable for the two-atom noise
    (c at lag 0, d at lag alpha).  For c*d >= 0 the function is strictly
    increasing, so the root is unique; in general the largest root is
    bracketed by a downward scan from 0 and polished by Brent's method.
    """
    # imported here: scipy.optimize loads scipy.special, which import leaves out
    from scipy.optimize import brentq

    if c == 0.0 and d == 0.0:
        raise ValueError("c and d must not both be zero")
    s = c * c + d * d

    def fn(b):
        return s + 2.0 * c * d * math.exp(b * alpha) + 2.0 * b

    f0 = fn(0.0)
    if f0 == 0.0:
        return 0.0
    if f0 < 0.0:
        raise NumericalError("no negative root: function already negative at 0")
    b_floor = -(0.5 * (abs(c) + abs(d)) ** 2 + 1.0)
    step = max(1e-2, abs(b_floor) / 1000.0)
    b_lo = 0.0
    while fn(b_lo) > 0.0:
        b_lo -= step
        if b_lo < 2.0 * b_floor:
            raise NumericalError("failed to bracket the stability boundary")
    return brentq(fn, b_lo, b_lo + step, xtol=_ROOT_RTOL)
