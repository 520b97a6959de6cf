"""Exact bulk conversion between float arrays and their text forms.

A coordinate file's body is "%.16e %.16e\\n" per landmark. Such a token is
a 17-digit integer M < 2**57 times 10**-k, k = 16 - exponent. Where
np.longdouble has a 64-bit significand and rounds to nearest, M and 10**k
for 0 <= k <= 27 (5**27 < 2**63) are exact in it, so one long-double
division or multiplication rounds once (Clinger 1990; Lemire 2021). Both
directions convert many bodies at a time that way, to the bits of float()
and the bytes of "%.16e", and hand every value whose result that one
rounding cannot settle to float() or "%" itself. SVG path data writes each
number as "%.3f" does, less its trailing zeros: 1000 * |x| is exact in
long double, so one rounding to an integer gives the digits. Where
np.longdouble has another format, everything goes through float() or "%".
JSON and CSV files hold each float as float.__repr__ writes it, the
shortest text that reads back to it (Steele & White 1990); repr_text
writes those in bulk from one long-double product per value, and hands
every value that product cannot settle to float.__repr__.
"""
from __future__ import annotations

import numpy as np

_FLOAT_FMT = "%.16e"


def _significands(x: np.ndarray) -> np.ndarray:
    """The 64-bit significand of each element of a 1-D long-double array,
    where it is x87's 80-bit format padded to 16 bytes."""
    return x.view("<u8")[::2]


def _longdouble_rounds_exactly() -> bool:
    """Whether np.longdouble is x87's 80-bit format, with a 64-bit
    significand in its low eight bytes, and rounds ties to even, as the
    bulk conversion assumes."""
    one = np.longdouble(1)
    half_ulp = np.longdouble(2.0 ** -64)
    return bool(np.finfo(np.longdouble).nmant == 63
                and np.dtype(np.longdouble).itemsize == 16
                and _significands(np.array([one + 2 * half_ulp]))[0]
                == 2 ** 63 + 1
                and one + half_ulp == one
                and one + 3 * half_ulp == one + 4 * half_ulp != one)


#: Whether the bulk conversion runs; where False, every value goes through
#: float() or "%".
EXACT_LONGDOUBLE = _longdouble_rounds_exactly()
_POW10 = np.cumprod(np.r_[1, np.full(27, 10)].astype(np.longdouble))

# A token is assembled from little-endian 4-byte words: [pad, pad, lead
# digit, '.'], four words of four fraction digits, ['e', sign, two exponent
# digits], [separator, pad, pad, pad]. Its 23 bytes from the lead digit on
# are then moved into place behind the sign, if any.
_PAIRS = np.arange(100) // 10 + ord("0") | (np.arange(100) % 10 + ord("0")) << 8
_QUADS = (_PAIRS[:, None] | _PAIRS << 16).astype("<u4").ravel()
_HEADS = ((np.arange(10) + ord("0")) << 16 | ord(".") << 24).astype("<u4")
_EXPONENTS = (ord("e") | np.r_[[ord("-")] * 99, [ord("+")] * 100] << 8
              | _PAIRS[np.abs(np.arange(-99, 100))] << 16).astype("<u4")
_SEPARATORS = np.array([ord(" "), ord("\n")], "<u4")


def encode_bodies(arrays: list[np.ndarray]) -> list[str]:
    """The "%.16e %.16e\\n" body of each (n, 2) array, byte for byte."""
    bodies = (_encode(arrays) if EXACT_LONGDOUBLE
              else [None] * len(arrays))
    return [(f"{_FLOAT_FMT} {_FLOAT_FMT}\n" * len(a)) % tuple(a.ravel().tolist())
            if body is None else body for a, body in zip(arrays, bodies)]


def _encode(arrays: list[np.ndarray]) -> list[str | None]:
    """The body of each array, or None for one with a value that needs a
    three-digit exponent.

    With e = floor(log10|x|), corrected by one where it is off, the long
    double P = |x| * 10**(16 - e) is split into an integer-valued double and
    an exact remainder, and the digits are their rounded sum. A P within a
    long-double ulp (at most 2**-7 here) of a half-integer, a P that is not
    strictly inside (10**16, 10**17), so that no carry can occur, and a
    16 - e outside [0, 27] are formatted by "%" alone.
    """
    x = np.concatenate([a.ravel() for a in arrays])
    zero = x == 0
    mag = np.abs(x)
    mag[~((mag > 0) & (mag < np.inf))] = 1.0
    exp = np.floor(np.log10(mag)).astype(np.int64)
    mag = mag.astype(np.longdouble)
    product = mag * _POW10[np.clip(16 - exp, 0, 27)]
    off = np.flatnonzero((product < 1e16) | (product >= 1e17))
    exp[off] += np.where(product[off] < 1e16, -1, 1)
    product[off] = mag[off] * _POW10[np.clip(16 - exp[off], 0, 27)]
    whole = product.astype(float)
    part = (product - whole).astype(float)
    nearest = np.rint(part)
    settled = ((exp >= -11) & (exp <= 16) & (whole > 1e16) & (whole < 1e17)
               & (np.abs(np.abs(part - nearest) - 0.5) > 2.0 ** -7))
    digits = np.where(settled, whole, 0).astype(np.int64) + np.where(
        settled, nearest, 0).astype(np.int64)
    lead, rest = np.divmod(digits, 10 ** 16)
    high, low = np.divmod(rest, 10 ** 8)
    words = np.empty((x.size, 7), "<u4")
    words[:, 0] = _HEADS[lead]
    words[:, 1], words[:, 2] = (_QUADS[q] for q in np.divmod(high, 10 ** 4))
    words[:, 3], words[:, 4] = (_QUADS[q] for q in np.divmod(low, 10 ** 4))
    words[:, 5] = _EXPONENTS[np.where(settled, exp, 0) + 99]
    words[0::2, 6], words[1::2, 6] = _SEPARATORS
    ends = np.cumsum([a.size for a in arrays])
    fits = np.ones(len(arrays), bool)
    redo = np.flatnonzero(~settled & ~zero)
    if redo.size:
        tokens = [(_FLOAT_FMT % v).lstrip("-") for v in x[redo].tolist()]
        wide = np.array([len(token) != 22 for token in tokens])
        fits[np.searchsorted(ends, redo[wide], side="right")] = False
        words.view(np.uint8)[redo[~wide], 2:24] = np.frombuffer("".join(
            t for t, w in zip(tokens, wide) if not w).encode(),
            np.uint8).reshape(-1, 22)
    negative = np.signbit(x)
    stop = np.cumsum(23 + negative)
    out = np.empty(stop[-1], np.uint8)
    np.ndarray((out.size - 22,), "V23", out, strides=(1,))[stop - 23] = (
        np.ndarray((x.size,), "V23", words, offset=2, strides=(28,)))
    out[stop[negative] - 24] = ord("-")
    text = out.tobytes().decode("ascii")
    cuts = [0, *stop[ends - 1]]
    return [text[a:b] if ok else None
            for a, b, ok in zip(cuts, cuts[1:], fits)]


def decode_bodies(bodies: list[bytes]) -> list[np.ndarray | None]:
    """The values of each body in the exact "%.16e %.16e\\n" layout, bit
    for bit as float() reads them, or None for any other body.

    Every token is found by its '.', and the 32 bytes from 7 before it are
    taken as four little-endian words: [..., sign or separator, lead digit,
    '.'], eight fraction digits twice, ['e', sign, two digits, separator,
    ...]. Each byte is checked, and the tokens of an accepted body tile it
    exactly with ' ' and '\\n' after them in turn. A value is M / 10**k in
    long double, rounded to float64. A long double on the midpoint between
    two doubles, where that second rounding may differ from float()'s one,
    and a k outside [0, 27] go through float(). The quotient is a normal
    number, so it is on a midpoint exactly when the 11 significand bits that
    float64 drops read 0x400.
    """
    if not EXACT_LONGDOUBLE:
        return [None] * len(bodies)
    sizes = np.array([len(body) for body in bodies], dtype=np.int64)
    ends = np.cumsum(sizes) + 7
    starts = ends - sizes
    buf = np.frombuffer(b"".join([b" " * 7, *bodies, b" " * 25]), np.uint8)
    dot = np.flatnonzero(buf == ord("."))
    if not dot.size:
        return [None] * len(bodies)
    first, stop = np.searchsorted(dot, starts), np.searchsorted(dot, ends)
    count = stop - first
    span = np.ndarray((buf.size - 31,), "V32", buf, strides=(1,))[dot - 7]
    chars = span.view(np.uint8).reshape(-1, 32)
    words = span.view("<u8").reshape(-1, 4)
    high, high_ok = _eight_digits(words[:, 1])
    low, low_ok = _eight_digits(words[:, 2])
    lead = chars[:, 6] - ord("0")
    tens, ones = chars[:, 26] - ord("0"), chars[:, 27] - ord("0")
    negative = chars[:, 5] == ord("-")
    rank = np.arange(dot.size) - np.repeat(first, count)
    start = np.r_[0, dot[:-1] + 22]
    start[first[count > 0]] = starts[count > 0]
    ok = (high_ok & low_ok & (lead < 10) & (tens < 10) & (ones < 10)
          & (chars[:, 24] == ord("e"))
          & ((chars[:, 25] == ord("+")) | (chars[:, 25] == ord("-")))
          & (chars[:, 28] == _SEPARATORS[rank & 1])
          & (dot - 1 - negative == start))
    owner = np.repeat(np.arange(len(bodies)), count)
    accepted = ((np.bincount(owner[~ok], minlength=len(bodies)) == 0)
                & (count >= 6) & (count % 2 == 0)
                & (dot[stop - 1] + 22 == ends))
    significand = (lead.astype(np.uint64) * 10 ** 16 + high * 10 ** 8
                   + low).astype(np.longdouble)
    exponent = tens.astype(np.int64) * 10 + ones
    k = 16 + np.where(chars[:, 25] == ord("-"), exponent, -exponent)
    in_range = (k >= 0) & (k <= 27)
    quotient = significand / _POW10[np.where(in_range, k, 0)]
    values = quotient.astype(float)
    redo = ~in_range | (_significands(quotient) & 0x7FF == 0x400)
    values[negative] *= -1
    for i in np.flatnonzero(redo & accepted[owner]):
        values[i] = float(buf[dot[i] - 1 - negative[i]:dot[i] + 21].tobytes())
    return [values[a:b] if ok else None
            for a, b, ok in zip(first, stop, accepted)]


def _eight_digits(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The number written by the eight ASCII digits packed little-endian in
    each uint64, and whether all eight are digits (Lemire 2021, SWAR)."""
    ok = (words & 0xF0F0F0F0F0F0F0F0
          | (words + 0x0606060606060606 & 0xF0F0F0F0F0F0F0F0) >> 4
          ) == 0x3333333333333333
    v = words - 0x3030303030303030
    v = (v * 10 + (v >> 8)) & 0x00FF00FF00FF00FF
    v = (v * 100 + (v >> 16)) & 0x0000FFFF0000FFFF
    return (v * 10000 + (v >> 32)) & 0xFFFFFFFF, ok


# A path number is assembled from little-endian 4-byte words: [prefix,
# prefix, prefix, '-'], two words of four integer digits, ['.', three
# fraction digits]. The prefix is "M " before the first x, " L " before
# every other x and " " before each y. Four keep words, one 0-or-1 byte per
# byte of the number, then drop the prefix bytes a value does not take, the
# '-' of a value whose sign bit is clear, the leading zeros of the integer
# part, and the trailing zeros of the fraction, with its point when all
# three are zero.
_PREFIXES = np.frombuffer(b" M -   - L -", "<u4")  # first x, y, other x
_PREFIX_KEEP = np.array([0x10100, 0x10000, 0x10101], "<u4")
_TENS = 10 ** np.arange(1, 8)
# entry d - 1 keeps the last d of the eight integer digits: the bytes of
# both integer keep words, written as one 8-byte field
_INTEGER_KEEP = (np.arange(8) >= 7 - np.arange(8)[:, None]).view("<u8")[:, 0]
_FRACTIONS = (_QUADS[:1000] & 0xFFFFFF00 | ord(".")).astype("<u4")
_FRACTION_KEEP = np.select([np.arange(1000) % k == 0 for k in (1000, 100, 10)],
                           [0, 0x101, 0x10101], 0x1010101).astype("<u4")
#: Rounded magnitude from which a path number is left to "%": its integer
#: part would not fit eight digits.
_PATH_LIMIT = 10 ** 8
#: Added to a long double below 2**63, it leaves no fraction bit, so the sum
#: rounds to an integer, half to even.
_ROUNDER = np.longdouble(2 ** 63)


def path_data(views: np.ndarray) -> list[str | None]:
    """The closed SVG path "M x y L x y ... Z" of each (n, 2) slice of a
    (k, n, 2) float stack, every number as "%.3f" writes it less its
    trailing zeros, and less its point when all three decimals are zero
    ("12.5", "3", "-0").

    1000 * |x| needs at most 63 significand bits, so it is exact in long
    double, and rounding it to an integer, half to even, rounds as "%.3f"
    does. A slice that holds a NaN, an infinity or a number that rounds to
    a magnitude of 1e8 or more gives None, and so does every slice where
    the bulk conversion does not run.
    """
    k, n = views.shape[:2]
    if not EXACT_LONGDOUBLE:
        return [None] * k
    mag = np.abs(views).reshape(k, 2 * n)
    mag[~(mag < _PATH_LIMIT)] = _PATH_LIMIT  # nan and inf as well
    scaled = (mag.astype(np.longdouble) * 1000 + _ROUNDER - _ROUNDER).astype(
        np.int64)
    settled = scaled < 1000 * _PATH_LIMIT
    scaled[~settled] = 0
    whole, fraction = np.divmod(scaled, 1000)
    kinds = np.tile([2, 1], n)
    kinds[0] = 0
    words = np.empty((k, 2 * n, 4), "<u4")
    words[..., 0] = _PREFIXES[kinds]
    words[..., 1], words[..., 2] = (_QUADS[q] for q in np.divmod(whole, 10000))
    words[..., 3] = _FRACTIONS[fraction]
    keep = np.empty((k, 2 * n, 4), "<u4")
    keep[..., 0] = _PREFIX_KEEP[kinds] | np.signbit(views).reshape(
        k, 2 * n).astype("<u4") << 24
    keep.view(np.uint8)[..., 4:12].view("<u8")[..., 0] = _INTEGER_KEEP[
        np.searchsorted(_TENS, whole, "right")]
    keep[..., 3] = _FRACTION_KEEP[fraction]
    mask = keep.view(bool)
    text = str(words.view(np.uint8)[mask].data, "ascii")
    cuts = [0, *np.cumsum(np.count_nonzero(mask.reshape(k, -1), 1)).tolist()]
    return [text[a:b] + " Z" if ok else None
            for a, b, ok in zip(cuts, cuts[1:], settled.all(axis=1))]


# Shortest round-trip text (float.__repr__) of |x| in [1e-4, 1e16), written
# in fixed point: "0.000ddd", "dd.ddd" or "ddd.0". The doubles nearest 1e-4
# to 1e-1 lie above those powers, so they bound the decimal exponent.
_DECADES = np.r_[1e-4, 1e-3, 1e-2, 1e-1, 10.0 ** np.arange(16)]
_INT_TEN = 10 ** np.arange(17, dtype=np.int64)
_RUN = "V24"  # a row of "0000000" and 17 digits; the longest float repr


def _shortest(x: np.ndarray):
    """(digits, count, exponent, settled): float.__repr__'s digits of each
    x as 17 digits, their count less trailing zeros, and their exponent.

    |x| * 10**(16 - e) is one long-double product M + f, M an integer and
    |f| <= 1/2, rounded by under half the slack M * 2**-63. A decimal
    D * 10**(e - 16) reads back to x when |D - M - f| < h = ulp(x) *
    10**(16 - e) / 2 (exact, above 0.55), so M does. repr writes the
    nearest multiple M - R of 10**j with |R + f| < h for the largest j:
    the shortest, and the nearest of those (Steele & White 1990). Powers of
    two (a nearer lower neighbour), values outside the fixed-point range,
    and roundings, tests or ties within the slack of their threshold are
    not settled, nor is anything where the bulk conversion does not run.
    """
    mag = np.abs(x)
    fixed = ((mag >= 1e-4) & (mag < 1e16) & (np.frexp(mag)[0] != 0.5)
             & EXACT_LONGDOUBLE)
    m = np.where(fixed, mag, 1.5)
    exponent = np.searchsorted(_DECADES, m, "right") - 5
    product = m.astype(np.longdouble) * _POW10[16 - exponent]
    whole = np.rint(product)
    f = (product - whole).astype(float)
    whole = whole.astype(np.int64)
    h = np.spacing(m) * 10.0 ** (16 - exponent) / 2
    slack = whole * 2.0 ** -63
    settled = fixed & (np.abs(f) < 0.5 - slack)
    digits, count = whole.copy(), np.full(x.size, 17)
    live = np.flatnonzero(settled)  # read back with j - 1 digits dropped
    for j in range(1, 17):
        ten = _INT_TEN[j]
        rest, frac, bound, near = (whole[live] % ten, f[live], h[live],
                                   slack[live])
        below = rest - ((rest > ten // 2) | (rest == ten // 2) & (frac > 0)) * ten
        gap = np.abs(below + frac)
        back = gap < bound
        unsure = (np.abs(gap - bound) <= near) | back & (
            np.abs(gap - ten / 2) <= near)
        settled[live[unsure]] = False
        live, below = live[back & ~unsure], below[back & ~unsure]
        digits[live], count[live] = whole[live] - below, 17 - j
        if not live.size:
            break
    zero = mag == 0  # "0.0"
    settled = settled & (digits < 10 ** 17) | zero
    count[zero], exponent[zero] = 1, 0
    return np.where(settled & ~zero, digits, 0), count, exponent, settled


def repr_text(values: np.ndarray, separators) -> str:
    """float.__repr__ of every element of a float array, in order, element
    i followed by ``separators[i % len(separators)]`` (bytes or uint8).

    A settled value's integer part (or the "0" before its point) and its
    fraction are two runs of its digit row, written as fixed-width records
    in text order, each over the tail of the one before, before the signs,
    points and separators. float.__repr__ fills the row of any other value,
    which is written as one run.
    """
    x = np.asarray(values, dtype=float).ravel()
    n = x.size
    if not n:
        return ""
    digits, count, exponent, settled = _shortest(x)
    rows = np.zeros((n + 1, 6), "<u4")  # the last pads the final run
    lead, rest = np.divmod(digits, 10 ** 16)
    high, low = np.divmod(rest, 10 ** 8)
    rows[:n, 0] = _QUADS[0]
    rows[:n, 1] = _QUADS[lead]
    rows[:n, 2], rows[:n, 3] = (_QUADS[q] for q in np.divmod(high, 10 ** 4))
    rows[:n, 4], rows[:n, 5] = (_QUADS[q] for q in np.divmod(low, 10 ** 4))
    first = 7 + np.minimum(exponent, 0)
    whole = np.maximum(exponent + 1, 1)
    fraction = np.maximum(count - exponent - 1, 1)
    redo = np.flatnonzero(~settled)
    if redo.size:
        tokens = [float.__repr__(v).encode() for v in x[redo].tolist()]
        rows.view(np.uint8)[redo] = np.frombuffer(
            b"".join(t.ljust(24) for t in tokens), np.uint8).reshape(-1, 24)
        first[redo], whole[redo], fraction[redo] = 0, list(map(len, tokens)), 0
    negative = np.signbit(x) & settled
    stop = np.cumsum(negative + whole + settled + fraction + 1)
    left = stop - whole - settled - fraction - 1
    right = left + whole + settled
    starts = np.arange(n) * 24
    out = np.empty(stop[-1] + 24, np.uint8)
    np.ndarray((out.size - 23,), _RUN, out, strides=(1,))[
        np.stack([left, right], 1).ravel()] = np.ndarray(
            (rows.size * 4 - 23,), _RUN, rows, strides=(1,))[
            np.stack([starts + first, starts + 8 + exponent], 1).ravel()]
    out[left[negative] - 1] = ord("-")
    out[right[settled] - 1] = ord(".")
    out[stop - 1] = np.tile(np.frombuffer(separators, np.uint8),
                            -(-n // len(separators)))[:n]
    return str(out[:stop[-1]].data, "ascii")
