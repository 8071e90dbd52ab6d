"""The bytes of ``"%.17g" % x`` for arrays of finite doubles, from numpy digit generation.

Each value's 17 significant digits D and decimal exponent E come from
|x| * 10^p, p = 16 - E, with 10^p a double-double H + L built from exact
integers and the product formed by Dekker's exact multiplication
(Numer. Math. 18, 1971): x * H = P + e exactly, and the rest, x * L, is one
rounded product.  P is at least 2^53, so it is an integer, and D is P plus
the remainder e + x * L rounded half-even.  That is the correctly rounded
conversion CPython's ``%`` makes (Gay, AT&T NAM 90-10, 1990), provided the
remainder's fraction is not within the product's error of 1/2.

A value goes to ``%`` instead, one at a time, when the fraction is that
close to 1/2, when E lies outside ``[_E_MIN, _E_MAX]`` (subnormals and
values near overflow among them), or when D lands outside [10^16, 10^17)
because log10 put E one off.  The lower end is tested before rounding: a
product just below 10^16 has the wrong E even where it rounds up to 10^16.
For 0 <= p <= 22, 10^p is a double, L is 0
and the remainder is exact, so an exact tie stays on the fast path and is
rounded half-even, as ``%`` does.

The text is laid out as ``%g`` lays it out, in a cell of four 8-byte words
per value with NUL in every unused byte, and the NULs are removed in one
pass.  Bytes 0-5 hold the sign and, for -4 <= E < 0, a leading "0.",
"0.0", ...; bytes 6-23 the printed digits with the point among them; bytes
24-28 the exponent and byte 31 the separator.  The 17 digit characters are
written once from byte 6 and once from byte 7: digits before the point are
read from the first copy and digits after it from the second, so the point
fits between them, and bytes past the last printed digit are masked off.
The words are little-endian whatever the machine's byte order.
"""

import functools

import numpy as np

#: decimal exponents on the fast path: x * 2^27 and 10^(16 - E) * 2^27 stay
#: finite, and the low part of every 10^(16 - E) stays a normal double
_E_MIN, _E_MAX = -284, 298
#: Veltkamp's constant: splits a double into two halves of at most 26 bits
_SPLIT = 2.0**27 + 1.0
#: bound on |computed - exact| remainder where L != 0; its rounding errors
#: add up to about 4 * 2^-106 * 10^17, near 5e-15
_TOL = 2.0**-40
_WORD = np.dtype("<u8")
#: the separator after a cell, in its last word
_COMMA, _LF = (np.array(ord(c) << 56, _WORD) for c in ",\n")


def _words(text: list[bytes]) -> np.ndarray:
    """Each 8-byte string as one little-endian word."""
    return np.frombuffer(b"".join(t.ljust(8, b"\0") for t in text), _WORD)


@functools.cache
def _tables():
    """Every table ``g17_rows`` reads, built from exact integers on first use.

    - 10^(16 - E) for E in [_E_MIN, _E_MAX]: H, its two halves, and L;
    - the characters of each 4-digit group, and its trailing zeros (4 for 0);
    - the first and the last word of a cell by E, less the sign and the separator;
    - the masks of the two digit copies and the point, in words 0-2 (nine
      rows), by 18 * (digits before the point) + (digits printed).
    """
    high, low = [], []
    for p in range(16 - _E_MAX, 16 - _E_MIN + 1):
        num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
        h = num / den
        n, d = h.as_integer_ratio()
        high.append(h)
        low.append((num * d - n * den) / (den * d))
    h = np.array(high)
    big = h * _SPLIT
    h_hi = big - (big - h)
    power = np.stack([h, h_hi, h - h_hi, np.array(low)], axis=1)

    g = np.arange(10000)
    chars = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1) + ord("0")
    groups = chars.astype(np.uint8).view("<u4").ravel()
    zeros = (g % 10 == 0) * 1 + (g % 100 == 0) + (g % 1000 == 0) + (g == 0)

    es = range(_E_MIN, _E_MAX + 1)
    prefix = _words([b"\0" + (b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b"") for e in es])
    exponent = _words([b"" if -4 <= e < 17 else f"e{e:+03d}".encode() for e in es])

    b, k = np.divmod(np.arange(18 * 18), 18)
    b, k, j = b[:, None], k[:, None], np.arange(-6, 18)
    first = np.where((j >= 0) & (j < b), 0xFF, 0)
    second = np.where((j > b) & (j <= k), 0xFF, 0)
    point = np.where((j == b) & (k > b) & (b > 0), ord("."), 0)
    masks = np.stack([first, second, point], axis=1).astype(np.uint8).view(_WORD)
    masks = masks.transpose(2, 1, 0).reshape(9, -1)
    return power, groups, zeros, prefix, exponent, masks


def g17_rows(values: np.ndarray) -> bytes:
    """``"%.17g"`` of each value of a 2-D array of finite doubles, ',' between columns, LF after rows."""
    power, groups, zeros, prefix, exponent, masks = _tables()
    rows, cols = values.shape
    x = np.asarray(values, dtype=float).ravel()
    a = np.abs(x)
    zero = a == 0.0
    a[zero] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    slow = (e < _E_MIN) | (e > _E_MAX)
    tame = zero | slow
    a[tame], e[tame] = 1.0, 0
    h, h_hi, h_lo, l = np.take(power, _E_MAX - e, axis=0).T
    # Dekker: a * h == prod + err exactly
    prod = a * h
    big = a * _SPLIT
    a_hi = big - (big - a)
    a_lo = a - a_hi
    err = ((a_hi * h_hi - prod) + a_hi * h_lo + a_lo * h_hi) + a_lo * h_lo
    rest = err + a * l
    whole = np.floor(rest)
    frac = rest - whole
    d = prod.astype(np.int64) + whole.astype(np.int64)
    slow |= ((np.abs(frac - 0.5) < _TOL) & (l != 0.0)) | (d < 10**16)
    d += (frac > 0.5) | ((frac == 0.5) & ((d & 1) == 1))
    slow |= d >= 10**17
    slow &= ~zero
    d[slow] = 10**16
    d[zero] = 0

    # D = t.gggg.gggg.gggg.gggg; the 16 characters of the groups g fill two words
    top = d // 10**16
    d -= top * 10**16
    g = np.empty((4, x.size), np.int64)
    g[0] = d // 10**12
    d -= g[0] * 10**12
    g[1] = d // 10**8
    d -= g[1] * 10**8
    g[2] = d // 10**4
    g[3] = d - g[2] * 10**4
    tail = np.empty((x.size, 4), groups.dtype)
    tail.T[:] = groups[g]
    lo, hi = tail.view(_WORD).T
    # digits printed: those before the point, and up to the last nonzero one
    z = zeros[g]
    trailing = z[3] + (g[3] == 0) * (z[2] + (g[2] == 0) * (z[1] + (g[1] == 0) * z[0]))
    before = np.where((e >= -4) & (e < 17), np.maximum(e + 1, 0), 1)
    layout = 18 * before + np.maximum(17 - trailing, before)

    cells = np.empty((x.size, 4), _WORD)
    # the 17 characters from byte 6 (c0, c1, c2) and from byte 7 (s0, lo, hi)
    top = top.astype(_WORD) + ord("0")
    c = (top << 48) | (lo << 56), (lo >> 8) | (hi << 56), hi >> 8
    s = top << 56, lo, hi
    for w in range(3):
        first, second, point = (m[layout] for m in masks[3 * w : 3 * w + 3])
        cells[:, w] = (c[w] & first) | (s[w] & second) | point
    cells[:, 0] |= prefix[e - _E_MIN] | np.signbit(x).astype(_WORD) * ord("-")
    ends = np.where(np.arange(cols) < cols - 1, _COMMA, _LF)
    cells.reshape(rows, cols, 4)[:, :, 3] = exponent[e - _E_MIN].reshape(rows, cols) | ends
    text = cells.view(np.uint8)
    for i in np.flatnonzero(slow):
        fallback = np.frombuffer(format(float(x[i]), ".17g").encode(), np.uint8)
        text[i, :31] = 0
        text[i, : fallback.size] = fallback
    return text.tobytes().translate(None, b"\0")
