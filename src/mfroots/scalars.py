"""Exact/inexact scalar layer.

A scalar is either an exact rational (``fractions.Fraction``, always
normalized) or an inexact real (``float``).  Python's numeric tower gives
the contagion rule for free: Fraction op Fraction stays Fraction, anything
touching a float becomes a float, and mixed comparisons/hashes agree with
exact values.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

Scalar = Union[Fraction, float]

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def is_exact(x: Scalar) -> bool:
    return isinstance(x, (Fraction, int))


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
