"""``repr`` of many floats at once, as bytes.

``repr`` prints a float as the decimal with the fewest significant
digits that reads back to the same float and, of those, the nearest to
it, ties to even. :func:`repr_bytes` computes these digits with numpy
for a whole array and gives the same bytes (Steele & White, PLDI 1990;
Adams, "Ryu", PLDI 2018). It scales a value to 17 integer digits
exactly, as an int64 plus a fraction, and looks for the coarsest power
of ten with a multiple in the scaled rounding interval.

The trace writer (``sim.write_trace_csvs``) formats its balances here.
"""

import itertools

import numpy as np

#: A text's bytes: NUL or a sign before 16 integer places, then '.',
#: 20 fraction places and 3 spare bytes for the longest ``repr``.
WIDTH = 44
#: The floats nearest 1e-4 ... 1e15; the ones below 1 lie above the
#: powers of ten they stand for.
_DECADES = np.array([float(f"1e{d}") for d in range(-4, 16)])
_SCALES = np.array([float(10**k) for k in range(21)])  # all exact
_POW10 = np.array([10**j for j in range(18)], dtype=np.int64)
#: Entry ``i`` holds the four decimal digits of ``i`` as byte values 0-9.
_QUADS = np.frombuffer(
    bytes(itertools.chain.from_iterable(itertools.product(range(10), repeat=4))),
    dtype=np.uint32,
)
#: What a text adds to its digit bytes, one row per (sign, integer
#: places, fraction places): '0' on the places shown, the point and the
#: sign, NUL elsewhere. Tables built from bytes, not array arithmetic,
#: keep the import small.
_TEMPLATES = np.frombuffer(
    b"".join(
        (b"-" * neg + b"0" * whole).rjust(20, b"\0")
        + b"."
        + (b"0" * frac).ljust(WIDTH - 21, b"\0")
        for neg in (0, 1)
        for whole in range(1, 17)
        for frac in range(1, 21)
    ),
    dtype=np.uint8,
).reshape(-1, WIDTH)
_CHUNK = 2048  # values formatted per pass; bounds the temporaries


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(p, e)`` with ``p = fl(a * b)`` and ``p + e == a * b`` exactly
    (Dekker's product with Veltkamp's split; no overflow here)."""

    def split(x):
        c = 134217729.0 * x  # 2**27 + 1
        hi = c - (c - x)
        return hi, x - hi

    p = a * b
    ah, al = split(a)
    bh, bl = split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _shortest(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(c, k, j)`` per ``a`` in [1e-4, 1e16): the digits of ``repr(a)``
    are those of ``c / 10**k``, ``c`` has 17 digits, and ``10**j`` is the
    largest power of ten dividing ``c``."""
    # V = a * 10**k lies in [1e16, 1e17) and is exactly q + f, with q an
    # int64 and f in [0, 1).
    k = 20 - (np.searchsorted(_DECADES, a, side="right") - 1)
    scale = _SCALES[k]
    p, e = _two_product(a, scale)
    e_floor = np.floor(e)
    f = e - e_floor
    q = p.astype(np.int64) + e_floor.astype(np.int64)
    # The decimals that read back to a fill [V - lo, V + hi]: half the
    # gap to each neighbouring float, scaled (exactly: a power of two
    # times 10**k); the gap below a power of two is half the one above.
    # Reading rounds half to even, so both ends count only for an even
    # mantissa.
    bits = a.view(np.int64)
    even = (bits & 1) == 0
    hi = np.spacing(a) * 0.5 * scale
    lo = np.where(bits & ((1 << 52) - 1) == 0, hi * 0.5, hi)

    def nearest(m):
        # The multiples of m next to V are q - r and q - r + m, at
        # r + f below V and m - r - f above it. lo and hi lie in
        # (0.5, 12) and are multiples of 2**-47, so lo - r and m - r - hi
        # are exact wherever they are near f, and compare right
        # elsewhere. If both fit, the nearer one; on a tie (both fit
        # only for m up to 24, where m - 2 r is exact) the even multiple.
        quot = q // m
        r = q - quot * m
        below = lo - r
        above = (m - r) - hi
        down = (f < below) | (even & (f == below))
        up = (above < f) | (even & (above == f))
        twice, gap = 2 * f, (m - 2 * r).astype(float)
        odd = quot & 1 == 1
        up &= ~down | (twice > gap) | ((twice == gap) & odd)
        return down | up, q - r + np.where(up, m, 0)

    # The fewest digits: the largest j with a multiple of 10**j in the
    # interval. The nearest integer, 0.5 away at most, is in it. The
    # interval is too narrow for two multiples of 100: if it holds one,
    # j is that multiple's count of trailing zeros.
    c = q + ((f > 0.5) | ((f == 0.5) & (q & 1 == 1)))
    j = np.zeros(len(a), dtype=np.int64)
    for zeros, m in enumerate((10, 100), start=1):
        fits, multiple = nearest(m)
        c = np.where(fits, multiple, c)
        j[fits] = zeros
    # fits marks the multiples of 100 now; count their other zeros.
    rest = c // 100
    for zeros in (8, 4, 2, 1):
        quot = rest // 10**zeros
        more = fits & (quot * 10**zeros == rest)
        rest = np.where(more, quot, rest)
        j += more * zeros
    return c, k, j


def _fixed(a: np.ndarray, neg: np.ndarray, out: np.ndarray) -> None:
    """Rows of :func:`repr_bytes` for ``-a if neg else a``, ``a`` in
    [1e-4, 1e16), where ``repr`` prints no exponent, into ``out``."""
    c, k, j = _shortest(a)
    # The decimal is c / 10**k, with 17 digits in c: split it at the
    # point into digit quads.
    whole_places = np.maximum(17 - k, 1)
    frac_places = np.maximum(k - j, 1)
    whole, frac = np.divmod(c, _POW10[np.minimum(k, 17)])
    # frac has k places; the first 7 make head, the next 13 tail.
    shift = k - 7
    rest = _POW10[np.maximum(shift, 0)]
    head = np.where(shift >= 0, frac // rest, frac * _POW10[np.maximum(-shift, 0)])
    tail = (frac % rest) * _POW10[np.clip(13 - shift, 0, 13)]
    # The digit quads of columns 4-43: 16 integer places, then the
    # point's quad with 3 places, 4 quads and 1 place.
    quads = np.empty((10, len(a)), dtype=np.int64)
    np.divmod(whole, 10000, out=(whole, quads[3]))
    np.divmod(whole, 10000, out=(whole, quads[2]))
    np.divmod(whole, 10000, out=(quads[0], quads[1]))
    np.divmod(head, 10000, out=(quads[4], quads[5]))
    np.divmod(tail, 10, out=(tail, quads[9]))
    quads[9] *= 1000
    np.divmod(tail, 10000, out=(tail, quads[8]))
    np.divmod(tail, 10000, out=(quads[6], quads[7]))
    # Digits beyond the places shown are 0, so adding them to the
    # template leaves NUL there; no byte carries into the next.
    index = (neg * 16 + whole_places - 1) * 20 + frac_places - 1
    np.take(_TEMPLATES, index, axis=0, out=out)
    out.view(np.uint32)[:, 1:] += _QUADS.take(quads).T


def repr_bytes(values: np.ndarray) -> np.ndarray:
    """``repr`` of each float of ``values``, as rows of :data:`WIDTH`
    bytes: a row without its NUL bytes is the ASCII of the text. The
    units digit sits in column 19 and the point, if the text has no
    exponent, in column 20. Python's ``repr`` is called only for 0.0,
    -0.0, non-finite values and values outside ±[1e-4, 1e16), which it
    prints with an exponent."""
    values = np.asarray(values, dtype=float)
    size = np.abs(values)
    fixed = (size >= 1e-4) & (size < 1e16)
    size[~fixed] = 1.0  # formatted, then overwritten below
    neg = np.signbit(values)
    texts = np.empty((len(values), WIDTH), dtype=np.uint8)
    for start in range(0, len(values), _CHUNK):
        rows = slice(start, start + _CHUNK)
        _fixed(size[rows], neg[rows], texts[rows])
    for i in np.flatnonzero(~fixed):
        text = repr(float(values[i])).encode()
        start = 19 - text.startswith(b"-")
        texts[i] = 0
        texts[i, start : start + len(text)] = np.frombuffer(text, dtype=np.uint8)
    return texts
