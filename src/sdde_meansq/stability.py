"""Mean-square stability statistic, trichotomy classification, and exponents.

The classification hinges on the squared L2 norm of s -> G(r_s), the
diffusion functional applied to history segments of the fundamental
solution.  Mass below 1 gives exponential decay of the second moment, mass
1 a finite nonzero limit, mass above 1 exponential growth with a Malthusian
rate; an initial segment that the diffusion functional annihilates along
the whole deterministic flow degenerates to the deterministic trajectory no
matter the statistic.
"""

import math
from dataclasses import dataclass, asdict

import numpy as np

from .errors import ConfigurationError, NumericalError, ALPHA_MISMATCH, BAD_VALUE
from .measures import CompiledFunctional, Segment, SignedMeasure, total_variation
from .quadrature import corrected_trapezoid, exact_divisions, require_match
from .resolvent import GridTrace, ResolventTable, SolutionTable, deterministic_solution

SUBCRITICAL = "SUBCRITICAL"
CRITICAL = "CRITICAL"
SUPERCRITICAL = "SUPERCRITICAL"
DEGENERATE = "DEGENERATE"
UNCERTIFIED = "UNCERTIFIED"

#: relative scale below which G(x_t) counts as identically zero
DEGENERACY_TOL = 1e-8
#: target number of segment intervals for the degeneracy scan grid
_DETECT_NODES = 8192
#: cap on the tilted-mass search, as a fraction of twice the decay rate
_THETA_CAP = 0.95

_ROOT_RTOL = 1e-12
_MAX_BISECT = 200


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

    def to_dict(self) -> dict:
        return asdict(self)


def g_of_r_trace(r: ResolventTable, nu: SignedMeasure) -> GridTrace:
    """Trace s -> G(r_s) of the diffusion functional along resolvent segments.

    The unit jump of the resolvent history at time 0 makes the trace jump
    wherever a point mass of nu crosses time 0.  At those grid nodes the
    stored value is the root mean square of the one-sided limits, so that
    trapezoidal integrals of the squared trace (the renewal kernel and all
    tilted masses) stay second-order accurate through the jumps.  Elsewhere
    the value is the right limit, as ``CompiledFunctional.value_at_unit_jump``
    gives it; both read the same ``jump_loss`` weights.
    """
    require_match(nu.alpha, r.alpha, ALPHA_MISMATCH, "measure alpha != resolvent alpha")
    F = CompiledFunctional(nu, r.step)
    N = F.n_intervals
    padded = r.padded
    out = F.trace(padded)
    v0 = padded[N]
    if F.jump_loss is not None:
        # the segment of step n holds time 0 at offset N - n
        m = min(N, out.size - 1) + 1
        out[:m] -= F.jump_loss[::-1][:m] * v0
    for j, w in F.atom_at.items():
        n = N - j
        if 0 < n < out.size:
            right = out[n]
            left = right - w * v0
            rms = math.sqrt(0.5 * (left * left + right * right))
            out[n] = math.copysign(rms, right if right != 0.0 else left)
    return GridTrace(r.step, out)


def solution_functional_trace(x: SolutionTable, nu: SignedMeasure) -> GridTrace:
    """Trace t -> G(x_t) of the diffusion functional along a solution."""
    require_match(nu.alpha, x.alpha, ALPHA_MISMATCH, "measure alpha != solution alpha")
    F = CompiledFunctional(nu, x.step)
    return GridTrace(x.step, F.trace(x.padded))


def classify(norm_sq: float, truncation_error: float, band: float | None = None) -> str:
    """Trichotomy decision with a finite-precision band around mass 1."""
    if band is None:
        band = max(1e-3, 3.0 * truncation_error)
    if band <= 0.0:
        raise ConfigurationError(BAD_VALUE, f"band must be positive, got {band}")
    if norm_sq < 1.0 - band:
        return SUBCRITICAL
    if norm_sq > 1.0 + band:
        return SUPERCRITICAL
    return CRITICAL


def tilted_kernel_mass(g: GridTrace, rate: float) -> float:
    """Integral of e^(-rate*s) g(s) over the window, end-corrected."""
    s = g.times()
    return corrected_trapezoid(g.values * np.exp(-rate * s), g.step)


def kernel_first_moment(g: GridTrace, rate: float = 0.0) -> float:
    """Integral of s e^(-rate*s) g(s) over the window, end-corrected."""
    s = g.times()
    return corrected_trapezoid(s * g.values * np.exp(-rate * s), g.step)


def bisect_decreasing(fn, lo: float, hi: float, target: float = 1.0) -> float:
    """Root of the monotone decreasing fn(x) = target on [lo, hi]."""
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        if fn(mid) >= target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= _ROOT_RTOL * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def solve_kappa_supercritical(g: GridTrace) -> float:
    """Positive rate at which the tilted kernel mass drops to one.

    ``g`` is the squared-functional kernel; its plain mass must exceed one.
    """
    if tilted_kernel_mass(g, 0.0) <= 1.0:
        raise NumericalError("kernel mass is not above one; no positive tilt rate exists")
    hi = 1.0
    for _ in range(_MAX_BISECT):
        if tilted_kernel_mass(g, hi) < 1.0:
            break
        hi *= 2.0
    else:
        raise NumericalError("failed to bracket the tilt rate")
    return bisect_decreasing(lambda k: tilted_kernel_mass(g, k), 0.0, hi)


def solve_theta_subcritical(g: GridTrace, rho: float) -> tuple[float | None, float]:
    """Positive rate at which the upward-tilted kernel mass reaches one.

    The search is capped at 0.95 * (2 rho) because beyond that the truncated
    quadrature of the growing integrand is unreliable.  Returns (theta,
    rate_bound); theta is None when the mass stays below one on the whole
    certified range, in which case the bound is the cap itself.
    """
    if rho <= 0.0:
        raise NumericalError("no certified decay rate; cannot search for a tilt rate")
    if tilted_kernel_mass(g, 0.0) >= 1.0:
        raise NumericalError("kernel mass is not below one")
    cap = _THETA_CAP * 2.0 * rho
    if tilted_kernel_mass(g, -cap) < 1.0:
        return None, cap
    theta = bisect_decreasing(lambda th: -tilted_kernel_mass(g, -th), 0.0, cap, target=-1.0)
    return theta, min(2.0 * rho, theta)


def limit_constant_critical(f: GridTrace, r_sq_int: float, g: GridTrace) -> float:
    """Limit of the second moment in the mass-one case."""
    m = kernel_first_moment(g)
    if m <= 0.0:
        raise NumericalError(f"kernel first moment {m:.3e} is not positive")
    return corrected_trapezoid(f.values, f.step) * r_sq_int / m


def limit_constant_supercritical(
    f: GridTrace, r: ResolventTable, g: GridTrace, kappa: float
) -> float:
    """Limit of e^(-kappa t) times the second moment in the excessive case."""
    m_k = kernel_first_moment(g, kappa)
    if m_k <= 0.0:
        raise NumericalError(f"tilted kernel first moment {m_k:.3e} is not positive")
    wf = np.exp(-kappa * f.times())
    num_f = corrected_trapezoid(f.values * wf, f.step)
    rtr = r.trace
    wr = np.exp(-kappa * rtr.times())
    num_r = corrected_trapezoid(rtr.values**2 * wr, rtr.step)
    return num_f * num_r / m_k


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

    True iff max |G(x_t)| over the scan window is below DEGENERACY_TOL
    relative to the total variation of nu times the solution scale.  Exits
    early with False when already |G(phi)| exceeds that scale.
    """
    alpha = mu.alpha
    if callable(phi):
        if alpha > 0.0:
            n_seg = exact_divisions(alpha, h, "alpha")
            k = max(1, -(-_DETECT_NODES // n_seg))
        else:
            k = 1
        h_det = h / k
        u = -alpha + h_det * np.arange(round(alpha / h_det) + 1)
        u[-1] = 0.0
        phi_seg = Segment(alpha, h_det, np.asarray(phi(u), dtype=float))
    else:
        phi_seg = phi
        h_det = phi.step
    eps = float(np.finfo(float).eps)
    tv = total_variation(nu)
    G = CompiledFunctional(nu, h_det)
    g_phi = G.value(phi_seg.values, 0)
    phi_scale = tv * float(np.abs(phi_seg.values).max()) + eps
    if abs(g_phi) > DEGENERACY_TOL * phi_scale:
        return False
    steps = round(T / h_det)
    x = deterministic_solution(mu, phi_seg, h_det, steps * h_det)
    g_trace = G.trace(x.padded)
    scale = tv * float(np.abs(x.padded).max()) + eps
    return float(np.abs(g_trace).max()) <= DEGENERACY_TOL * scale


def example_norm_formula(b: float, c: float, d: float, alpha: float) -> float:
    """Closed-form squared statistic for drift b*x(t) and noise c*x(t)+d*x(t-alpha)."""
    if b >= 0.0:
        raise ValueError(f"requires b < 0, got {b}")
    return (c * c + d * d + 2.0 * c * d * math.exp(b * alpha)) / (-2.0 * b)


def solve_b0(c: float, d: float, alpha: float) -> float:
    """Largest real root of c^2 + d^2 + 2 c d e^(b alpha) + 2 b in b.

    This is the drift value at which the closed-form statistic crosses one:
    drifts below it are mean-square stable for the two-atom noise
    (c at lag 0, d at lag alpha).  For c*d >= 0 the function is strictly
    increasing, so the root is unique; in general the largest root is
    bracketed by a downward scan from 0 and polished by bisection
    (``bisect_decreasing`` on -fn).
    """
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
    return bisect_decreasing(lambda b: -fn(b), b_lo, b_lo + step, target=0.0)
