"""Quadrature, convolution and grid-matching helpers shared by the solver modules.

Every convolution goes through ``convolve`` and every causal trace (Heun
steps, renewal solve) through ``solve_causal``.  Inside ``solve_causal``,
which already holds the errstate ``convolve`` enters, its helpers call the
bare ``_convolve``: a ``meansquare`` call makes hundreds of them.
``convolve`` sums short products directly and long ones by FFT overlap-add:
direct when one input has at most ``_DIRECT`` points or the inputs have at
most ``_DIRECT * _FFT_BLOCK`` (2**18) products.  On a 2-core VM a 2 x 40000
convolution took 25-30 us direct and 3 ms by FFT; the FFT first wins near
1024 x 1024.  FFT round-off is relative to the largest value in a
transform, so ``times_exp`` tilts data for range on that path.  Values that
leave the float range come out of both as inf or NaN without a warning, and
callers check them with ``require_finite``.

A recurrence of reach at most ``_DIRECT`` (Heun on a drift whose only atom
is at lag 0 has reach one) is homogeneous past its last input, so
``solve_causal`` finishes it in long blocks, each its carry convolved with
the impulse response: O(n * reach) past the input, with no transform.  The
response grows to at most ``_TAIL`` points and stops before it leaves
[2^-256, 2^256], where alone it would overflow or underflow.

The solver's 128-point block response is built without a loop per entry:
a running product for one tap (bit for bit the entry-by-entry sum), and
otherwise by the same doubling from e = [1] on the taps a[:128], the only
ones its points read, at any reach.  The block inverse gathers the response
through one lag index built at import.
"""

import math

import numpy as np

from .errors import ConfigurationError, NumericalError, BAD_VALUE, GRID_MISALIGNED

#: relative tolerance for "h divides this span exactly"
DIV_RTOL = 1e-12
#: ``solve_causal`` solves blocks of this many points directly
_BASE = 128
#: longest FFT; longer convolutions are overlap-added from blocks
_FFT_BLOCK = 4096
#: ``convolve`` sums directly when an input has at most this many points or
#: the inputs have at most this many times _FFT_BLOCK products
_DIRECT = 64
#: longest impulse response of a homogeneous tail
_TAIL = 8192
#: a tail's impulse response stops growing where it leaves [1/_RANGE, _RANGE]
_RANGE = 2.0**256
_LOG_MAX = math.log(np.finfo(float).max)
#: entry (i, j) of a block's inverse Toeplitz matrix is e[i - j] on and below
#: the diagonal, and e[_BASE] = 0 above it
_LAGS = np.subtract.outer(np.arange(_BASE), np.arange(_BASE))
_LAGS[_LAGS < 0] = _BASE


def require_positive(value: float, field: str) -> float:
    """A step, horizon or band ``value``; BAD_VALUE on ``field`` unless positive and finite."""
    if not 0.0 < value < math.inf:
        raise ConfigurationError(BAD_VALUE, f"must be positive and finite, got {value}", field)
    return value


def exact_divisions(span: float, h: float, what: str = "span") -> int:
    """Number of steps of size ``h`` in ``span``, requiring exact divisibility."""
    n = round(span / require_positive(h, "step"))
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


def log_linear_fit(t: np.ndarray, v: np.ndarray):
    """Least-squares line through (t, log v) over the positive v, in closed form.

    Returns (slope, t_mean, log_mean), the line being log_mean + slope *
    (t - t_mean), or None when fewer than two v are positive.  Both t and
    log v are centred before their products are summed in numpy's own loop:
    BLAS splits a long dot over its threads, so its bits follow their count.
    """
    mask = v > 0.0
    if np.count_nonzero(mask) < 2:
        return None
    tw, lw = t[mask], np.log(v[mask])
    t_mean, l_mean = tw.mean(), lw.mean()
    tw -= t_mean
    return float(np.einsum("i,i->", tw, lw - l_mean) / np.einsum("i,i->", tw, tw)), t_mean, l_mean


def _spectra(v: np.ndarray, seg: int) -> np.ndarray:
    """Real FFTs of length 2*seg of consecutive seg-point blocks of v."""
    padded = np.concatenate((v, np.zeros(-v.size % seg)))
    return np.fft.rfft(padded.reshape(-1, seg), 2 * seg, axis=1)


@np.errstate(over="ignore", invalid="ignore")
def convolve(a: np.ndarray, b: np.ndarray, n_out: int) -> np.ndarray:
    """First n_out terms of the linear convolution of a and b.

    Short inputs (see ``_DIRECT``) are summed directly.  Otherwise both are
    cut into blocks of at most _FFT_BLOCK / 2 points; block products are
    summed in the frequency domain per output block and the inverse
    transforms are overlap-added.  The loop runs over the blocks of ``a``,
    so pass the shorter input first.
    """
    return _convolve(a, b, n_out)


def _convolve(a: np.ndarray, b: np.ndarray, n_out: int) -> np.ndarray:
    """``convolve`` without its errstate, for callers inside ``solve_causal``'s."""
    a, b = a[:n_out], b[:n_out]
    if min(a.size, b.size) <= _DIRECT or a.size * b.size <= _DIRECT * _FFT_BLOCK:
        out = np.zeros(n_out)
        if a.size and b.size:
            full = np.convolve(a, b)[:n_out]
            out[: full.size] = full
        return out
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
        if not far.any():
            # the plain product, as the second branch below gives it
            return v * np.exp(e)
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


def _carry(a: np.ndarray, v: np.ndarray, hi: int) -> np.ndarray:
    """What v[hi - reach:hi] adds to the next reach points under the taps a; v is 0 before 0."""
    w = v[max(0, hi - a.size + 1) : hi]
    return _convolve(w, a, w.size + a.size - 1)[w.size :]


def _next_half(a: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The next e.size points of the impulse response e of a: e's carry convolved with e."""
    return _convolve(_carry(a, e, e.size), e, e.size)


def _block_response(a: np.ndarray) -> np.ndarray:
    """The first _BASE points of the impulse response of a: e[0] = 1, e[m] = sum a[k] e[m-k].

    One tap is a running product.  Any other reach doubles from e = [1] by
    ``_next_half`` on a[:_BASE], since e[m] for m < _BASE reads no later tap.
    """
    if a.size == 2:
        return np.multiply.accumulate(np.concatenate(([1.0], np.full(_BASE - 1, a[1]))))
    a, e = a[:_BASE], np.ones(1)
    while e.size < _BASE:
        e = np.concatenate((e, _next_half(a, e)))
    return e


def _input_end(y: np.ndarray, start: int) -> int:
    """One past the last nonzero of y[start:], scanned back _TAIL points at a time."""
    hi = y.size
    while hi > start:
        lo = max(start, hi - _TAIL)
        if y[lo:hi].any():
            return lo + int(np.flatnonzero(y[lo:hi])[-1]) + 1
        hi = lo
    return start


def _homogeneous_tail(a: np.ndarray, e: np.ndarray, y: np.ndarray, lo: int) -> np.ndarray:
    """Finish ``solve_causal`` from y[lo:], where the only input left is the carry y[lo:lo + reach].

    The recurrence is homogeneous there, so each block is its carry convolved
    with the impulse response e, a direct product of width reach.  e doubles
    first, each new half the convolution of e with the carry of e's own
    tail, up to _TAIL points or the remaining length.  It stops before a
    half whose largest |value| leaves [1/_RANGE, _RANGE]: a response that
    overflows or underflows alone would turn a representable block into
    inf or 0.
    """
    n, reach = y.size, a.size - 1
    while e.size < min(_TAIL, n - lo):
        more = _next_half(a, e)
        if not 1.0 / _RANGE <= np.abs(more).max() <= _RANGE:
            break
        e = np.concatenate((e, more))
    while lo < n:
        hi = min(lo + e.size, n)
        y[lo:hi] = _convolve(y[lo : lo + reach], e, hi - lo)
        end = min(hi + reach, n)
        y[hi:end] += _carry(a, y, hi)[: end - hi]
        lo = hi
    return y


@np.errstate(over="ignore", invalid="ignore")
def solve_causal(a: np.ndarray, y: np.ndarray, start: int) -> np.ndarray:
    """Fill y[m] = f[m] + sum over 0 < k < len(a) of a[k] y[m-k] for m >= start, in place.

    ``y[:start]`` is the prefix and ``y[start:]`` holds f on entry.  Hairer,
    Lubich and Schlichte's divide and conquer (SIAM J. Sci. Stat. Comput. 6,
    1985), O(n log^2 n): each block of ``_BASE`` points is solved by its
    inverse Toeplitz matrix, whose first column is the impulse response of
    a; a finished left half of a dyadic range adds its history to the right
    half in one convolution, cut to the reach len(a) - 1.

    A short recurrence (reach at most ``_DIRECT``) leaves the blocks once
    they have passed the last nonzero of f and of the prefix's feed.  From
    there it is homogeneous, and ``_homogeneous_tail`` solves it in blocks
    of up to ``_TAIL`` points, each its carry convolved with the impulse
    response: O(n * reach) past the input.  The response stops growing
    before it leaves [2^-256, 2^256], so no block turns into inf or 0 where
    the solution itself is representable.
    """
    n, reach = y.size, a.size - 1
    if start >= n or reach < 1:
        return y
    end, left = min(n, start + reach), max(0, start - reach)
    y[start:end] += _convolve(y[left:start], a[: end - left], end - left)[start - left :]
    e = _block_response(a)
    inverse = np.append(e, 0.0)[_LAGS]
    last = _input_end(y, start) if reach <= _DIRECT else n
    # once block j is solved, the 2^i blocks ending with it (2^i the largest
    # power of two dividing j + 1) feed the next 2^i blocks
    for j in range(-(-(n - start) // _BASE)):
        lo = start + j * _BASE
        hi = min(lo + _BASE, n)
        y[lo:hi] = inverse[: hi - lo, : hi - lo] @ y[lo:hi]
        half = _BASE * ((j + 1) & -(j + 1))
        end, left = min(hi + half, hi + reach, n), max(hi - half, hi - reach)
        if hi < end:
            y[hi:end] += _convolve(y[left:hi], a[: end - left], end - left)[hi - left :]
        if last <= hi < n:
            return _homogeneous_tail(a, e, y, hi)
    return y
