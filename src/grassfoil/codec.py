"""Exact bulk conversion between coordinate-file bodies and float arrays.

A coordinate file's body is "%.16e %.16e\\n" per landmark. Such a token is
a 17-digit integer M < 2**57 times 10**-k, k = 16 - exponent. Where
np.longdouble has a 64-bit significand and rounds to nearest, M and 10**k
for 0 <= k <= 27 (5**27 < 2**63) are exact in it, so one long-double
division or multiplication rounds once (Clinger 1990; Lemire 2021). Both
directions convert many bodies at a time that way, to the bits of float()
and the bytes of "%.16e", and hand every value whose result that one
rounding cannot settle to float() or "%" itself. Where np.longdouble has
another format, everything goes that way.
"""
from __future__ import annotations

import numpy as np

_FLOAT_FMT = "%.16e"


def _longdouble_rounds_exactly() -> bool:
    """Whether np.longdouble has a 64-bit significand and rounds ties to
    even, as the bulk conversion assumes."""
    one = np.longdouble(1)
    half_ulp = np.longdouble(2.0 ** -64)
    return bool(np.finfo(np.longdouble).nmant == 63
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


def decode_bodies(bodies: list[str]) -> list[np.ndarray | None]:
    """The values of each body in the exact "%.16e %.16e\\n" layout, bit
    for bit as float() reads them, or None for any other body.

    Every token is found by its '.', and the 32 bytes from 7 before it are
    taken as four little-endian words: [..., sign or separator, lead digit,
    '.'], eight fraction digits twice, ['e', sign, two digits, separator,
    ...]. Each character is checked, and the tokens of an accepted body tile
    it exactly with ' ' and '\\n' after them in turn. A value is M / 10**k in
    long double, rounded to float64. A long double on the midpoint between
    two doubles, where that second rounding may differ from float()'s one,
    and a k outside [0, 27] go through float().
    """
    if not EXACT_LONGDOUBLE:
        return [None] * len(bodies)
    sizes = np.array([len(body) for body in bodies], dtype=np.int64)
    ends = np.cumsum(sizes) + 7
    starts = ends - sizes
    buf = np.frombuffer(
        (" " * 7 + "".join(bodies) + " " * 25).encode("ascii", "replace"),
        np.uint8)
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
          & (chars[:, 28] == np.where(rank % 2, ord("\n"), ord(" ")))
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
    excess = (quotient - values).astype(float)
    gap = np.nextafter(values, np.copysign(np.inf, excess)) - values
    redo = ~in_range | (excess != 0) & (2 * excess == gap)
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
