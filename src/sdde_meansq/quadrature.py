"""Quadrature and grid-matching helpers shared by the solver modules."""

import numpy as np

from .errors import ConfigurationError, GRID_MISALIGNED

#: relative tolerance for "h divides this span exactly"
DIV_RTOL = 1e-12


def exact_divisions(span: float, h: float, what: str = "span") -> int:
    """Number of steps of size ``h`` in ``span``, requiring exact divisibility."""
    if h <= 0.0:
        raise ConfigurationError(GRID_MISALIGNED, f"step must be positive, got {h}")
    n = round(span / h)
    if n < 0 or abs(span - n * h) > DIV_RTOL * max(abs(span), h):
        raise ConfigurationError(
            GRID_MISALIGNED, f"step {h} does not divide {what} {span} exactly"
        )
    return n


def require_match(a: float, b: float, code: str, message: str, field: str | None = None) -> None:
    """Raise ConfigurationError(code) unless the grid quantities a and b agree.

    Alphas and steps that must coincide are compared here, to DIV_RTOL
    relative to the smaller magnitude.
    """
    if not abs(a - b) <= DIV_RTOL * min(abs(a), abs(b)):
        raise ConfigurationError(code, f"{message}: {a} != {b}", field=field)


def trapezoid(values: np.ndarray, h: float) -> float:
    """Plain trapezoidal rule on a uniform grid."""
    v = np.asarray(values, dtype=float)
    if v.size < 2:
        return 0.0
    return h * (v.sum() - 0.5 * (v[0] + v[-1]))


def corrected_trapezoid(values: np.ndarray, h: float) -> float:
    """Trapezoidal rule with endpoint-derivative (Euler-Maclaurin) correction.

    End derivatives are estimated with one-sided 4-point differences, so the
    rule is effectively 4th order for integrands smooth near the endpoints.
    Interior kinks are left to the plain rule.  Falls back to the plain rule
    for traces shorter than 4 points.
    """
    v = np.asarray(values, dtype=float)
    base = trapezoid(v, h)
    if v.size < 4:
        return base
    d0 = (-11.0 * v[0] + 18.0 * v[1] - 9.0 * v[2] + 2.0 * v[3]) / (6.0 * h)
    d1 = (11.0 * v[-1] - 18.0 * v[-2] + 9.0 * v[-3] - 2.0 * v[-4]) / (6.0 * h)
    return base - h * h / 12.0 * (d1 - d0)
