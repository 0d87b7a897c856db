"""Exact/inexact scalar layer.

A scalar is either an exact rational (``fractions.Fraction``, always
normalized) or an inexact real (``float``).  Python's numeric tower gives
the contagion rule for free: Fraction op Fraction stays Fraction, anything
touching a float becomes a float, and mixed comparisons/hashes agree with
exact values.

Fraction's own comparison operators and ``min``, ``max``, ``sorted`` and
``bisect`` over Fractions pay for a numeric-tower check on every
comparison, and its arithmetic normalizes after every step.  So the
library compares, orders and splits exact scalars through the helpers
below, which read each one's integer ratio (``as_integer_ratio()``) and
decide on integer cross-products, or build one Fraction from integers:
``lt``, ``le`` and ``eq``; ``inside`` (an open interval) and ``within``
(a closed one); ``smaller``, ``larger`` and ``low_high``; ``ordered``,
``bisect_left`` and ``bisect_right``; ``midpoint``, ``thirds`` and
``extrapolate``.  They give the operators' verdicts and the operators'
canonical results; a float argument goes through the operators.
"""

from __future__ import annotations

import bisect as _bisect
import math
import re
from fractions import Fraction
from typing import Union

Scalar = Union[Fraction, float]

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def is_exact(x: Scalar) -> bool:
    return isinstance(x, (Fraction, int))


# ---------------------------------------------------------------------------
# exact comparison and splitting
# ---------------------------------------------------------------------------

def lt(x: Scalar, y: Scalar) -> bool:
    """x < y."""
    tx, ty = type(x), type(y)
    if (tx is Fraction or tx is int) and (ty is Fraction or ty is int):
        xn, xd = x.as_integer_ratio()
        yn, yd = y.as_integer_ratio()
        return xn * yd < yn * xd
    return x < y


def le(x: Scalar, y: Scalar) -> bool:
    """x <= y."""
    tx, ty = type(x), type(y)
    if (tx is Fraction or tx is int) and (ty is Fraction or ty is int):
        xn, xd = x.as_integer_ratio()
        yn, yd = y.as_integer_ratio()
        return xn * yd <= yn * xd
    return x <= y


def eq(x: Scalar, y: Scalar) -> bool:
    """x == y: exact scalars are equal when their reduced ratios are."""
    tx, ty = type(x), type(y)
    if (tx is Fraction or tx is int) and (ty is Fraction or ty is int):
        return x.as_integer_ratio() == y.as_integer_ratio()
    return x == y


def inside(x: Scalar, lo: Scalar, hi: Scalar) -> bool:
    """lo < x < hi."""
    tx, tl, th = type(x), type(lo), type(hi)
    if ((tx is Fraction or tx is int) and (tl is Fraction or tl is int)
            and (th is Fraction or th is int)):
        xn, xd = x.as_integer_ratio()
        ln, ld = lo.as_integer_ratio()
        hn, hd = hi.as_integer_ratio()
        return ln * xd < xn * ld and xn * hd < hn * xd
    return lo < x < hi


def within(x: Scalar, lo: Scalar, hi: Scalar) -> bool:
    """lo <= x <= hi."""
    tx, tl, th = type(x), type(lo), type(hi)
    if ((tx is Fraction or tx is int) and (tl is Fraction or tl is int)
            and (th is Fraction or th is int)):
        xn, xd = x.as_integer_ratio()
        ln, ld = lo.as_integer_ratio()
        hn, hd = hi.as_integer_ratio()
        return ln * xd <= xn * ld and xn * hd <= hn * xd
    return lo <= x <= hi


def smaller(x: Scalar, y: Scalar) -> Scalar:
    """min(x, y): x on a tie."""
    return y if lt(y, x) else x


def larger(x: Scalar, y: Scalar) -> Scalar:
    """max(x, y): x on a tie."""
    return y if lt(x, y) else x


def low_high(x: Scalar, y: Scalar) -> tuple:
    """(min(x, y), max(x, y))."""
    return (y, x) if lt(y, x) else (x, y)


# the size in bits of the common denominator past which ``ordered`` takes
# the operators.  Integer keys cost about the common denominator's size
# each, which grows with every new denominator, while the operators cost
# what each pair's own sizes cost.  Timed against ``sorted`` on n
# Fractions with random odd denominators (CPython 3.11), the integer keys
# break even near 1 000 bits at n = 16, 1 800 at n = 64 and 3 500 at
# n = 256; the builds sort at most 17 keys with at most 25 bits in common
_ORDERED_BITS = 1024


def ordered(items, key=None) -> list:
    """sorted(items, key=key) for a key that gives a scalar (the item
    itself by default); stable.  Exact keys are put over their common
    denominator and sorted as integers, unless that denominator grows past
    ``_ORDERED_BITS``."""
    items = list(items)
    if len(items) < 2:
        return items
    ratios = []
    common = 1
    for k in (items if key is None else map(key, items)):
        if type(k) is not Fraction and type(k) is not int:
            return sorted(items, key=key)
        n, d = k.as_integer_ratio()
        common = math.lcm(common, d)
        if common.bit_length() > _ORDERED_BITS:
            return sorted(items, key=key)
        ratios.append((n, d))
    ints = [n * (common // d) for n, d in ratios]
    return [items[i] for i in sorted(range(len(items)), key=ints.__getitem__)]


def bisect_left(seq, x: Scalar) -> int:
    """bisect.bisect_left(seq, x) for an increasing sequence of scalars."""
    if type(x) is Fraction or type(x) is int:
        xn, xd = x.as_integer_ratio()
        lo, hi = 0, len(seq)
        while lo < hi:
            mid = (lo + hi) // 2
            a = seq[mid]
            if type(a) is not Fraction and type(a) is not int:
                return _bisect.bisect_left(seq, x)
            an, ad = a.as_integer_ratio()
            if an * xd < xn * ad:
                lo = mid + 1
            else:
                hi = mid
        return lo
    return _bisect.bisect_left(seq, x)


def bisect_right(seq, x: Scalar) -> int:
    """bisect.bisect_right(seq, x) for an increasing sequence of scalars."""
    if type(x) is Fraction or type(x) is int:
        xn, xd = x.as_integer_ratio()
        lo, hi = 0, len(seq)
        while lo < hi:
            mid = (lo + hi) // 2
            a = seq[mid]
            if type(a) is not Fraction and type(a) is not int:
                return _bisect.bisect_right(seq, x)
            an, ad = a.as_integer_ratio()
            if xn * ad < an * xd:
                hi = mid
            else:
                lo = mid + 1
        return lo
    return _bisect.bisect_right(seq, x)


def midpoint(x: Scalar, y: Scalar) -> Scalar:
    """(x + y) / 2."""
    if type(x) is Fraction and type(y) is Fraction:
        xn, xd = x.as_integer_ratio()
        yn, yd = y.as_integer_ratio()
        return Fraction(xn * yd + yn * xd, 2 * xd * yd)
    return (x + y) / 2


def thirds(p: Scalar, q: Scalar) -> tuple:
    """(p + (q − p)/3, q − (q − p)/3): the points a third of the way in
    from each end."""
    if type(p) is Fraction and type(q) is Fraction:
        pn, pd = p.as_integer_ratio()
        qn, qd = q.as_integer_ratio()
        a, b, d = pn * qd, qn * pd, 3 * pd * qd
        return Fraction(2 * a + b, d), Fraction(a + 2 * b, d)
    third = (q - p) / 3
    return p + third, q - third


def extrapolate(w1: Scalar, w2: Scalar) -> Scalar:
    """2·w1 − w2: the value one step past w1 on the line through w2 and w1."""
    if type(w1) is Fraction and type(w2) is Fraction:
        an, ad = w1.as_integer_ratio()
        bn, bd = w2.as_integer_ratio()
        return Fraction(2 * an * bd - bn * ad, ad * bd)
    return 2 * w1 - w2


def as_scalar(x) -> Scalar:
    """Coerce ints/strings/Fractions to exact scalars, floats stay floats."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return x
    if isinstance(x, str):
        return parse_scalar(x)
    raise TypeError(f"cannot interpret {x!r} as a scalar")


def parse_scalar(text: str) -> Fraction:
    """Parse an exact rational written as ``p`` or ``p/q``."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def format_scalar(x: Scalar) -> str:
    """Canonical text form: rationals as ``p/q``/``p``, reals with 12
    significant digits."""
    if is_exact(x):
        return str(Fraction(x))
    return format(float(x), ".12g")


def integer_nth_root(value: int, n: int):
    """Exact n-th root of a nonnegative integer, or None."""
    if value < 0 or n <= 0:
        raise ValueError("need value >= 0 and n >= 1")
    if value in (0, 1) or n == 1:
        return value
    # Newton iteration on integers; exact, no float precision issues.
    x = 1 << (-(-value.bit_length() // n))
    while True:
        y = ((n - 1) * x + value // x ** (n - 1)) // n
        if y >= x:
            break
        x = y
    return x if x ** n == value else None


def rational_nth_root(value: Fraction, n: int):
    """Exact n-th root of a positive rational, or None when irrational."""
    if value <= 0:
        raise ValueError("need a positive rational")
    p = integer_nth_root(value.numerator, n)
    q = integer_nth_root(value.denominator, n)
    if p is None or q is None:
        return None
    return Fraction(p, q)
