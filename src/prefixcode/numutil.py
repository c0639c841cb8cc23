"""Exact integer and rational helpers: log2 floors and decimal rendering.

Everything here is pure integer arithmetic; no value is ever rounded through
a float.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from prefixcode.errors import OutOfRangeError


def exact_fraction(value) -> Fraction:
    """Exact rational from int, Fraction, string, or float.

    Floats convert through their shortest decimal rendering (0.4 becomes
    2/5), never through their binary expansion.
    """
    if isinstance(value, float):
        return Fraction(repr(value))
    return Fraction(value)


def common_numerators(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of the values over their least common denominator."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def floor_log2(n: int) -> int:
    """Largest t with 2**t <= n, for n >= 1."""
    if n < 1:
        raise OutOfRangeError(f"floor_log2 needs n >= 1, got {n}")
    return n.bit_length() - 1


def floor_neg_log2(p: Fraction) -> int:
    """Largest t with p <= 2**-t, i.e. floor(-log2 p), for 0 < p <= 1."""
    p = Fraction(p)
    if not 0 < p <= 1:
        raise OutOfRangeError(f"floor_neg_log2 needs 0 < p <= 1, got {p}")
    a, b = p.numerator, p.denominator
    # t such that a * 2**t <= b < a * 2**(t+1)
    t = (b // a).bit_length() - 1
    while (a << (t + 1)) <= b:
        t += 1
    while (a << t) > b:
        t -= 1
    return t


def _scaled(x: Fraction, places: int) -> tuple[int, int]:
    x = Fraction(x)
    if x < 0:
        raise OutOfRangeError("decimal rendering expects a non-negative value")
    return x.numerator * 10**places, x.denominator


def _render(units: int, places: int) -> str:
    whole, frac = divmod(units, 10**places)
    if places == 0:
        return str(whole)
    return f"{whole}.{frac:0{places}d}"


def decimal_floor(x: Fraction, places: int) -> str:
    """Largest decimal with `places` digits that is <= x."""
    num, den = _scaled(x, places)
    return _render(num // den, places)


def decimal_ceil(x: Fraction, places: int) -> str:
    """Smallest decimal with `places` digits that is >= x."""
    num, den = _scaled(x, places)
    return _render(-((-num) // den), places)


def decimal_str(x: Fraction, places: int) -> str:
    """Round-half-up decimal rendering with `places` digits."""
    num, den = _scaled(x, places)
    return _render((2 * num + den) // (2 * den), places)
