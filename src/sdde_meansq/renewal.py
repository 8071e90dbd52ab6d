"""Linear renewal equation solver and second-moment reconstruction.

The equation y(t) = f(t) + integral of g(s) y(t-s) ds over [0, t] is
discretized with trapezoidal product quadrature; each grid value solves the
scalar diagonal equation once the history sum up to it is known.  The
second moment of the stochastic solution is then x(t)^2 plus the
trapezoidal convolution of the squared fundamental solution with y.

Both convolutions go through one block FFT helper, ``_convolve``, whose
transforms never exceed ``_FFT_BLOCK`` points.  The renewal solve is the
divide-and-conquer scheme of Hairer, Lubich and Schlichte (SIAM J. Sci.
Stat. Comput. 6, 1985): solve the left half of a grid range, add its
history to the right half with one convolution, then solve the right half.
It runs as one loop over blocks of ``_BASE`` points, each marched step by
step, with the convolutions of the dyadic ranges that end at each block.
The cost is O(n log^2 n) for n grid points instead of the O(n^2) of a
plain march, and the second moment costs one convolution.

FFT round-off is relative to the largest value in a transform, so both
routes work on exponentially tilted data and multiply the result back by
e^(sigma t).  A common factor e^(-sigma t_n) on every term of the n-th
trapezoid sum is exact algebra, so any sigma gives the same scheme; sigma
only decides which values the round-off is relative to.  The solver tilts
f and g by the kernel's discrete Malthusian exponent (``malthusian_rate``),
the rate at which the tilted trapezoid mass of g equals one, so that the
tilted solution neither grows nor decays exponentially.  The second moment
tilts r^2 and y by the fitted exponential rate of y, which is that same
exponent on the renewal route and stays right when y follows a forcing
that decays more slowly than the kernel.  Where e^(sigma t) itself leaves
the floating-point range, the product is formed through logarithms, so
values that underflow or overflow only at the tilt factor stay exact.  A
value that leaves the range when untilted raises NumericalError naming its
time.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError, BAD_VALUE, GRID_MISALIGNED, STEP_TOO_LARGE
from .quadrature import require_match
from .resolvent import GridTrace, ResolventTable
from .stability import bisect_decreasing

#: second moments may round slightly below zero; anything worse aborts
_NEG_TOL = 1e-12
#: grid ranges of at most this many points are marched step by step
_BASE = 128
#: longest FFT; longer convolutions are overlap-added from blocks
_FFT_BLOCK = 4096
_LOG_MAX = math.log(np.finfo(float).max)


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


def malthusian_rate(kernel: GridTrace) -> float:
    """Discrete Malthusian exponent sigma of a kernel with h*g(0)/2 < 1.

    The root of h * sum' g_k e^(-sigma s_k) = 1 (trapezoid weights), or 0
    when the kernel has no mass past s = 0.  Each term is written as
    e^(c_k - sigma s_k) with c_k = log(weight_k g_k); the bracket starts
    where the largest term equals one, so no term exceeds one during the
    search.
    """
    g, h = kernel.values, kernel.step
    k = np.flatnonzero(g[1:] > 0.0) + 1
    if k.size == 0:
        return 0.0
    s = h * k
    c = np.log(g[k]) + np.log(np.where(k == g.size - 1, 0.5 * h, h))
    d = 0.5 * h * g[0]
    lo = float(np.max(c / s))
    # beyond lo every term is at most q^k, q = e^(-h (sigma - lo)); at hi
    # their sum q / (1 - q) is (1 - d) / 2, so the mass is below one
    hi = lo + math.log((3.0 - d) / (1.0 - d)) / h
    return bisect_decreasing(lambda sg: d + float(np.exp(c - sg * s).sum()), lo, hi)


def _spectra(v: np.ndarray, seg: int) -> np.ndarray:
    """Real FFTs of length 2*seg of consecutive seg-point blocks of v."""
    padded = np.zeros(-(-v.size // seg) * seg)
    padded[: v.size] = v
    return np.fft.rfft(padded.reshape(-1, seg), 2 * seg, axis=1)


def _convolve(a: np.ndarray, b: np.ndarray, n_out: int) -> np.ndarray:
    """First n_out terms of the linear convolution of a and b.

    Both inputs are cut into blocks of at most _FFT_BLOCK / 2 points; block
    products are summed in the frequency domain per output block and the
    inverse transforms are overlap-added.
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


def _times_exp(v: np.ndarray, e: np.ndarray) -> np.ndarray:
    """v * e^e for v >= 0; inf where the product leaves the float range.

    Where e^e alone leaves the float range, the product is formed as
    e^(log v + e), so tilting and untilting keep every representable value.
    """
    far = np.abs(e) > _LOG_MAX
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return np.where(far, np.exp(np.log(v) + e), v * np.exp(np.where(far, 0.0, e)))


def _require_finite(values: np.ndarray, h: float, what: str) -> np.ndarray:
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise NumericalError(
            f"{what} leaves the floating-point range at t = {bad[0] * h:.6g}; "
            "shorten the horizon T"
        )
    return values


def solve_renewal(p: RenewalProblem) -> GridTrace:
    """Solve the discretized renewal equation on tilted data; y(0) = f(0)."""
    f = p.forcing.values
    h = p.forcing.step
    diag = 0.5 * h * p.kernel.values[0]
    if diag >= 1.0:
        raise ConfigurationError(
            STEP_TOO_LARGE,
            f"h*g(0)/2 = {diag:.3g} >= 1; reduce the step to resolve the kernel",
        )
    pw = malthusian_rate(p.kernel) * p.forcing.times()
    ft = _times_exp(f, -pw)
    gt = _times_exp(p.kernel.values, -pw)
    scale = 1.0 / (1.0 - diag)
    yt = np.empty(f.size)
    yt[0] = ft[0]
    # trapezoid history sum (without the factor h) over finished points
    hist = 0.5 * gt * yt[0]
    g_rev = gt[_BASE:0:-1].copy()  # g_rev[g_rev.size - k:] is g_k, ..., g_1
    # Block j covers [lo, hi) = [1 + j B, 1 + (j + 1) B) and is marched point
    # by point.  Once it is done, the 2^i blocks ending with it (2^i the
    # largest power of two dividing j + 1) are the left half of a
    # divide-and-conquer range: their history goes to the right half, the
    # next 2^i blocks, in one convolution.
    for j in range(-(-(f.size - 1) // _BASE)):
        lo = 1 + j * _BASE
        hi = min(lo + _BASE, f.size)
        # the untilted value must not fall below -_NEG_TOL
        floor = -_times_exp(_NEG_TOL, -pw[lo:hi])
        for k, (fn, hn, bound) in enumerate(
            zip(ft[lo:hi].tolist(), hist[lo:hi].tolist(), floor.tolist())
        ):
            n = lo + k
            yn = (fn + h * (hn + float(np.dot(g_rev[g_rev.size - k :], yt[lo:n])))) * scale
            if yn < bound:
                raise NumericalError(
                    f"renewal solution went negative at step {n}; "
                    "the grid does not resolve the problem"
                )
            yt[n] = max(yn, 0.0)
        half = _BASE * ((j + 1) & -(j + 1))
        end = min(hi + half, f.size)
        if hi < end:
            left = hi - half
            hist[hi:end] += _convolve(yt[left:hi], gt[: end - left], end - left)[half:]
    return GridTrace(h, _require_finite(_times_exp(yt, pw), h, "renewal solution"))


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
    rsq = _times_exp(np.abs(rv[:n_pts]), -0.5 * pw) ** 2
    yt = _times_exp(yv, -pw)
    conv = _convolve(rsq, yt, n_pts) - 0.5 * (rsq[0] * yt + rsq * yt[0])
    conv[0] = 0.0
    np.maximum(conv, 0.0, out=conv)
    with np.errstate(over="ignore"):
        out = x.values[:n_pts] ** 2 + _times_exp(h * conv, pw)
    return GridTrace(h, _require_finite(out, h, "second moment"))
