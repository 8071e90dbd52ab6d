"""Quadrature, convolution and grid-matching helpers shared by the solver modules.

Every convolution goes through ``convolve`` and every causal trace (Heun
steps, renewal solve) through ``solve_causal``.  FFT round-off is relative
to the largest value in a transform; ``times_exp`` tilts data for range.
Values that leave the float range come out of both as inf or NaN without a
warning, and callers check them with ``require_finite``.
"""

import math

import numpy as np

from .errors import ConfigurationError, NumericalError, GRID_MISALIGNED

#: relative tolerance for "h divides this span exactly"
DIV_RTOL = 1e-12
#: ``solve_causal`` solves blocks of this many points directly
_BASE = 128
#: longest FFT; longer convolutions are overlap-added from blocks
_FFT_BLOCK = 4096
_LOG_MAX = math.log(np.finfo(float).max)


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


def _spectra(v: np.ndarray, seg: int) -> np.ndarray:
    """Real FFTs of length 2*seg of consecutive seg-point blocks of v."""
    padded = np.concatenate((v, np.zeros(-v.size % seg)))
    return np.fft.rfft(padded.reshape(-1, seg), 2 * seg, axis=1)


@np.errstate(over="ignore", invalid="ignore")
def convolve(a: np.ndarray, b: np.ndarray, n_out: int) -> np.ndarray:
    """First n_out terms of the linear convolution of a and b.

    Both inputs are cut into blocks of at most _FFT_BLOCK / 2 points; block
    products are summed in the frequency domain per output block and the
    inverse transforms are overlap-added.  The loop runs over the blocks of
    ``a``, so pass the shorter input first.
    """
    a, b = a[:n_out], b[:n_out]
    seg = min(_FFT_BLOCK // 2, 1 << (max(a.size, b.size) - 1).bit_length())
    n_blocks = -(-n_out // seg)
    fa, fb = _spectra(a, seg), _spectra(b, seg)
    acc = np.zeros((n_blocks, seg + 1), dtype=complex)
    for i in range(min(len(fa), n_blocks)):
        m = min(len(fb), n_blocks - i)
        acc[i : i + m] += fa[i] * fb[:m]
    blocks = np.fft.irfft(acc, 2 * seg, axis=1)
    out = np.zeros((n_blocks + 1) * seg)
    out[:-seg] += blocks[:, :seg].ravel()
    out[seg:] += blocks[:, seg:].ravel()
    return out[:n_out]


def times_exp(v: np.ndarray, e: np.ndarray) -> np.ndarray:
    """v * e^e for v >= 0; inf where the product leaves the float range.

    Where e^e alone leaves the float range, the product is formed as
    e^(log v + e), so tilting and untilting keep every representable value
    and a zero value stays zero under any tilt.
    """
    far = np.abs(e) > _LOG_MAX
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return np.where(far, np.exp(np.log(v) + e), v * np.exp(np.where(far, 0.0, e)))


def require_finite(values: np.ndarray, h: float, what: str) -> np.ndarray:
    """``values`` unchanged, or NumericalError naming the first non-finite time."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise NumericalError(
            f"{what} leaves the floating-point range at t = {bad[0] * h:.6g}; "
            "shorten the horizon T"
        )
    return values


@np.errstate(over="ignore", invalid="ignore")
def solve_causal(a: np.ndarray, y: np.ndarray, start: int) -> np.ndarray:
    """Fill y[m] = f[m] + sum over 0 < k < len(a) of a[k] y[m-k] for m >= start, in place.

    ``y[:start]`` is the prefix and ``y[start:]`` holds f on entry.  Hairer,
    Lubich and Schlichte's divide and conquer (SIAM J. Sci. Stat. Comput. 6,
    1985), O(n log^2 n): each block of ``_BASE`` points is solved by its
    inverse Toeplitz matrix, whose first column is the impulse response of
    a; a finished left half of a dyadic range adds its history to the right
    half in one convolution, cut to the reach len(a) - 1.
    """
    n, reach = y.size, a.size - 1
    if start >= n or reach < 1:
        return y
    end, left = min(n, start + reach), max(0, start - reach)
    y[start:end] += convolve(y[left:start], a[: end - left], end - left)[start - left :]
    e = np.zeros(_BASE)
    e[0] = 1.0
    for i in range(1, _BASE):
        taps = a[1 : i + 1]
        e[i] = taps @ e[i - 1 :: -1][: taps.size]
    inverse = np.tril(e[np.abs(np.subtract.outer(np.arange(_BASE), np.arange(_BASE)))])
    # once block j is solved, the 2^i blocks ending with it (2^i the largest
    # power of two dividing j + 1) feed the next 2^i blocks
    for j in range(-(-(n - start) // _BASE)):
        lo = start + j * _BASE
        hi = min(lo + _BASE, n)
        y[lo:hi] = inverse[: hi - lo, : hi - lo] @ y[lo:hi]
        half = _BASE * ((j + 1) & -(j + 1))
        end, left = min(hi + half, hi + reach, n), max(hi - half, hi - reach)
        if hi < end:
            y[hi:end] += convolve(y[left:hi], a[: end - left], end - left)[hi - left :]
    return y
