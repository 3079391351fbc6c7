"""``repr`` of many floats at once, as bytes.

``repr`` prints a float as the decimal with the fewest significant
digits that reads back to the same float and, of those, the nearest to
it, ties to even. :func:`repr_bytes` computes these digits with numpy
for a whole array and gives the same bytes (Steele & White, PLDI 1990;
Adams, "Ryu", PLDI 2018). It runs about 100 elementwise numpy calls per
pass over at most ``_CHUNK`` values, and divides by a per-value divisor
once:

1. The decade. The exponent bits give a value's binade, and one
   comparison with the power of ten inside it gives the k for which
   ``V = a * 10**k`` lies in [1e16, 1e17). Everything else that depends
   on k comes from tables indexed by binade and side.
2. The scaled value. Dekker's product gives V exactly as ``q + f``, q
   an int64 and f in [0, 1).
3. The fewest digits. The decimals that read back to ``a`` fill
   ``[V - lo, V + hi]``, an interval 1.1 to 22.2 wide: it holds the
   nearest integer and at most one multiple of 100, and q's last two
   digits give the multiples of 10 and 100 next to V. Only a multiple of
   100 can have more trailing zeros; they are counted on those values
   alone.
4. The digits. The text is ``c / 10**k`` for the 17 digits ``c``
   chosen above. Its integer part is ``floor(a)``; its fraction,
   ``c - floor(a) * 10**k`` scaled by powers of ten, gives fraction
   places 1-15 and 16-20. Both are cut into 8-digit groups, one per
   uint64 of a row, whose 4-digit halves a 10,000-entry table turns
   into bytes; a template row per sign, integer places and fraction
   places adds the zeros' code, the point and the sign.

On a 2-core x86 box with numpy 2.4 this costs about 150 ns per value
on paper-scale balances, against about 280 ns for the 2,048-value
passes with per-value divisors that it replaced. Passes are short
because each makes a few dozen temporaries of its length; at 8,192
values a sweep process's allocator returned their pages between calls
and faulted them back in.

The trace writer (``sim.write_trace_csvs``) formats its balances here.
"""

import itertools

import numpy as np

#: A text's bytes before trimming, five uint64 of eight places: NUL
#: or a sign before 15 integer places, then '.', 20 fraction places and
#: 3 spare bytes for the longest ``repr``.
WIDTH = 40
_CHUNK = 4096  # values formatted per pass; bounds the temporaries
#: The floats nearest 1e-4 ... 1e15; the ones below 1 lie above the
#: powers of ten they stand for.
_DECADES = np.array([float(f"1e{d}") for d in range(-4, 16)])
_POW10 = [10**k for k in range(22)]
#: Per binade [2**E, 2**(E + 1)), E = -14 ... 49: the decade at its
#: start, as an index into ``_DECADES`` plus one, and the power of ten
#: inside it, if any.
_EXP0 = 1023 - 14  # the biased exponent of 2**-14 < 1e-4
_LOW = 2.0 ** np.arange(-14, 50)
_NEXT = np.searchsorted(_DECADES, _LOW, side="right")
_ABOVE = np.where(_DECADES[_NEXT] < 2 * _LOW, _DECADES[_NEXT], np.inf)
#: What a pass looks up per binade and side of ``_ABOVE``, at index
#: ``2 * binade + above``, from its k: 10**k and its Veltkamp halves,
#: half the gap to the next float times 10**k, k, then 10**k, a factor,
#: a divisor and a factor that align the fraction's places (see
#: ``_groups``), and the template row before the sign and the fraction
#: places are added.
_K = ((21 - _NEXT)[:, None] - np.array([0, 1])).ravel()
_SCALE = np.array(_POW10, dtype=float)[_K]  # all exact
_SPLIT = 134217729.0 * _SCALE  # 2**27 + 1
_SCALE_HI = _SPLIT - (_SPLIT - _SCALE)
_SCALE_LO = _SCALE - _SCALE_HI
_HALF_GAP = np.repeat(_LOW * 2.0**-53, 2) * _SCALE
_POWER, _MUL, _DIV, _MUL_TAIL, _TEMPLATE = np.array(
    [
        (
            _POW10[k] if k < 19 else 0,
            _POW10[max(15 - k, 0)],
            _POW10[max(k - 15, 0)],
            _POW10[23 - k] if k > 15 else 0,
            20 * (16 - min(k, 16)) - 1,
        )
        for k in _K.tolist()
    ],
    dtype=np.int64,
).T.copy()
_TENS = np.array(_POW10[1:15], dtype=float)  # all exact
#: 2**-49 where the mantissa's last bit is 0.
_TIE = np.array([2.0**-49, 0.0])
#: Per last two digits r of q: r % 10, and where r % 10 + f must lie
#: above for the multiple of 10 above V to be the nearer one, ties to
#: even (r % 10 + f is a multiple of 2**-46).
_R10 = np.arange(100.0) % 10
_NEAR = 5.0 - np.arange(100) // 10 % 2 * 2.0**-47
#: Entry ``i`` holds the four decimal digits of ``i`` as byte values 0-9,
#: in the low and in the high half of a uint64.
_QUADS = np.frombuffer(
    bytes(itertools.chain.from_iterable(itertools.product(range(10), repeat=4))),
    dtype=np.uint32,
).astype(np.uint64)
_QUADS_HIGH = _QUADS << np.uint64(32)
#: What a text adds to its digit bytes, one row per (sign, integer
#: places, fraction places): '0' on the places shown, the point and the
#: sign, NUL elsewhere. Tables built from bytes, not array arithmetic,
#: keep the import small.
_TEMPLATES = np.frombuffer(
    b"".join(
        (b"-" * neg + b"0" * whole).rjust(16, b"\0")
        + b"."
        + (b"0" * frac).ljust(WIDTH - 17, b"\0")
        for neg in (0, 1)
        for whole in range(1, 16)
        for frac in range(1, 21)
    ),
    dtype=np.uint8,
).reshape(-1, WIDTH)
_MANTISSA = (1 << 52) - 1


def _scaled(a: np.ndarray, column: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(q, f, lo, hi)`` per ``a`` in [1e-4, 1e15) with k from ``column``:
    ``V = a * 10**k`` in [1e16, 1e17) is exactly ``q + f``, q an int64
    and f in [0, 1), and the decimals that read back to ``a`` fill
    ``[V - lo, V + hi]``."""
    # Dekker's product with Veltkamp's split; no overflow here.
    scale = _SCALE.take(column)
    split = 134217729.0 * a
    a_hi = split - (split - a)
    a_lo = a - a_hi
    scale_hi = _SCALE_HI.take(column)
    scale_lo = _SCALE_LO.take(column)
    p = a * scale
    f = ((a_hi * scale_hi - p) + a_hi * scale_lo + a_lo * scale_hi) + a_lo * scale_lo
    e_floor = np.floor(f)
    f -= e_floor
    q = p.astype(np.int64)
    q += e_floor.astype(np.int64)
    # Half the gap to each neighbouring float, scaled: a power of two
    # times 10**k, exactly; below a power of two the gap is half. f, lo
    # and hi are multiples of 2**-48 (V is 1e16 or more), so adding
    # 2**-49 to both makes strict tests against them count the ends, as
    # reading does for an even mantissa.
    bits = a.view(np.int64)
    gap = _HALF_GAP.take(column)
    hi = gap + _TIE.take(bits & 1)
    lo = hi
    powers = np.flatnonzero((bits & _MANTISSA) == 0)
    if len(powers):
        lo = hi.copy()
        lo[powers] -= 0.5 * gap[powers]
    return q, f, lo, hi


def _shortest(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(c, column, j)`` per ``a`` in [1e-4, 1e15): the digits of
    ``repr(a)`` are those of ``c / 10**k``, ``c`` has 17 digits, ``10**j``
    is the largest power of ten dividing ``c``, and ``column`` is the
    index of k in the tables."""
    binade = (a.view(np.int64) >> 52) - _EXP0
    column = 2 * binade + (a >= _ABOVE.take(binade))
    q, f, lo, hi = _scaled(a, column)
    last = q - 100 * (q // 100)
    r100 = last.astype(float)
    r10 = _R10.take(last)
    # The multiples of m next to V are q - r and q - r + m, at r + f
    # below V and m - r - f above it. lo and hi lie in (0.5, 12), so
    # lo - r and m - r - hi are exact wherever they are near f, and
    # compare right elsewhere.
    up100 = f > (100.0 - r100) - hi
    fit100 = (f < lo - r100) | up100
    # For m = 10, r + f itself is exact, and so is m - r - f.
    low = r10 + f
    down10 = low < lo
    up10 = 10.0 - low < hi
    fit10 = down10 | up10
    # Both multiples of 10 can fit: then the nearer, on a tie (f = 0 and
    # r10 = 5) the even one. The nearest integer always fits: rint gives
    # it, with ties to even.
    up10 &= ~down10 | (low > _NEAR.take(last))
    step = np.where(fit10, 10.0 * up10, np.rint(low)) - r10
    step = np.where(fit100, 100.0 * up100 - r100, step)
    q += step.astype(np.int64)
    # The interval is too narrow for two multiples of 100: if it holds
    # one, j is that multiple's count of trailing zeros.
    j = fit10.view(np.int8) + fit100.view(np.int8)
    more = np.flatnonzero(fit100)
    # c // 100 < 2**53, so its quotient by a power of ten is exact, and
    # whole exactly where that power divides it.
    quot = (q[more] // 100).astype(float) / _TENS[:, None]
    j[more] += (np.floor(quot) == quot).sum(axis=0, dtype=np.int8)
    return q, column, j


def _groups(a: np.ndarray, c: np.ndarray, column: np.ndarray) -> np.ndarray:
    """The digits of :func:`_shortest`'s decimal ``c / 10**k`` of ``a`` in
    8-digit groups, one per uint64 of a row: the sign's column and
    integer places 15-9, integer places 8-1, the point's column and
    fraction places 1-7, places 8-15, and places 16-20 followed by three
    zeros."""
    # The integer part is floor(a): the decimal lies strictly between
    # a's neighbours, and every integer up to 2**53 is a float. The
    # fraction, c - floor(a) * 10**k, has k places; scaled by a power of
    # ten, its places 1-15 make one integer and places 16-20 the rest.
    whole = np.floor(a).astype(np.int64)
    frac = (c - whole * _POWER.take(column)) * _MUL.take(column)
    div = _DIV.take(column)
    first = frac // div
    groups = np.empty((len(a), 5), dtype=np.int64)
    groups[:, 0] = whole // 10**8
    groups[:, 1] = whole - groups[:, 0] * 10**8
    groups[:, 2] = first // 10**8
    groups[:, 3] = first - groups[:, 2] * 10**8
    frac -= first * div
    groups[:, 4] = frac * _MUL_TAIL.take(column)
    return groups


def _fixed(a: np.ndarray, neg: np.ndarray, out: np.ndarray) -> tuple[int, int]:
    """Rows of :func:`repr_bytes` for ``-a if neg else a``, ``a`` in
    [1e-4, 1e15), where ``repr`` prints no exponent, into ``out``;
    returns the span of columns they use."""
    c, column, j = _shortest(a)
    groups = _groups(a, c, column)
    k = _K.take(column)
    frac_places = np.maximum(k - j, 1)
    # Digits beyond the places shown are 0, so adding them to the
    # template leaves NUL there; no byte carries into the next.
    index = _TEMPLATE.take(column) + neg * (15 * 20) + frac_places
    np.take(_TEMPLATES, index, axis=0, out=out)
    upper = groups // 10**4
    groups -= upper * 10**4
    words = out.view(np.uint64)
    words += _QUADS.take(upper)
    words += _QUADS_HIGH.take(groups)
    return min(int(k.min()), 16) - 1 - bool(neg.any()), 17 + int(frac_places.max())


def repr_bytes(values: np.ndarray) -> np.ndarray:
    """``repr`` of each float of ``values``, as rows of bytes, one column
    per place: a row without its NUL bytes is the ASCII of the text.
    The units digits share a column, and so do the points of texts
    without an exponent; the rows are as wide as the texts need.
    Python's ``repr`` is called only for 0.0, -0.0, non-finite values
    and magnitudes outside [1e-4, 1e15): the ones it prints with an
    exponent, and the rare ones with 16 integer places."""
    values = np.asarray(values, dtype=float)
    size = np.abs(values)
    fixed = (size >= 1e-4) & (size < 1e15)
    size[~fixed] = 1.0  # formatted, then overwritten below
    neg = np.signbit(values)
    texts = np.empty((len(values), WIDTH), dtype=np.uint8)
    first, stop = WIDTH, 0
    # Passes of equal length, none longer than _CHUNK.
    length = -(-len(values) // -(-len(values) // _CHUNK)) if len(values) else 1
    for start in range(0, len(values), length):
        rows = slice(start, start + length)
        left, right = _fixed(size[rows], neg[rows], texts[rows])
        first, stop = min(first, left), max(stop, right)
    others = np.flatnonzero(~fixed)
    if len(others):
        # Python's texts, each from column 14: its sign there, or NUL.
        spelled = [t if t[0] == "-" else "\0" + t for t in map(repr, values[others].tolist())]
        padded = "".join(("\0" * 14 + t).ljust(WIDTH, "\0") for t in spelled)
        texts[others] = np.frombuffer(padded.encode(), dtype=np.uint8).reshape(-1, WIDTH)
        first, stop = min(first, 14), max(stop, 14 + max(map(len, spelled)))
    return texts[:, first:stop].copy()
