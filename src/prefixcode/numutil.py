"""Exact integer and rational helpers: log2 floors and exact renderings.

Everything here is pure integer arithmetic; no value is ever rounded through
a float.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from prefixcode.errors import OutOfRangeError


def exact_fraction(value) -> Fraction:
    """Exact rational from int, Fraction, string, or float.

    Floats convert through their shortest decimal rendering (0.4 becomes
    2/5), never through their binary expansion.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        return Fraction(repr(value))
    return Fraction(value)


def rat_str(x) -> str:
    """Exact "a/b" rendering of a rational of any size (see
    :func:`weight_strs`)."""
    if type(x) is not Fraction:
        x = Fraction(x)
    return weight_strs((x.numerator,), x.denominator)[0]


def weight_strs(nums: Sequence[int], den: int) -> list[str]:
    """Exact rendering of each weight v/den, for ``den > 0``: the string of
    ``Fraction(v, den)``, built from gcd, ``//`` and ``str`` alone, with each
    distinct reduced denominator rendered once.

    ``str`` fails on an integer with more digits than the interpreter's
    int-to-str limit (4300 by default), which valid inputs can reach; only
    then is the limit lifted, once for the whole list.
    """
    limit = sys.get_int_max_str_digits()
    top = max([den, *map(abs, nums)])
    # 2**(3 * limit) < 10**limit: the bit length rules out most lists at once
    lift = limit and top.bit_length() > 3 * limit and top >= 10**limit
    if lift:
        sys.set_int_max_str_digits(0)
    try:
        suffixes = {1: ""}
        out = []
        for v in nums:
            g = gcd(v, den)
            d = den // g
            suffix = suffixes.get(d)
            if suffix is None:
                suffix = suffixes[d] = "/" + str(d)
            out.append(str(v // g) + suffix)
        return out
    finally:
        if lift:
            sys.set_int_max_str_digits(limit)


def common_numerators(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of the values over their least common denominator.

    A value already over that denominator lends its own numerator object, so
    a distribution that keeps its numerators holds no second copy of them.
    """
    den = lcm(*(v.denominator for v in values))
    return [v.numerator if v.denominator == den else v.numerator * (den // v.denominator)
            for v in values], den


def floor_log2(n: int) -> int:
    """Largest t with 2**t <= n, for n >= 1."""
    if n < 1:
        raise OutOfRangeError(f"floor_log2 needs n >= 1, got {n}")
    return n.bit_length() - 1


def floor_neg_log2(p: Fraction) -> int:
    """Largest t with p <= 2**-t, i.e. floor(-log2 p), for 0 < p <= 1."""
    p = Fraction(p)
    if not 0 < p <= 1:
        raise OutOfRangeError(f"floor_neg_log2 needs 0 < p <= 1, got {rat_str(p)}")
    # for p = a/b the largest t with a * 2**t <= b: 2**t <= b/a exactly
    # when 2**t <= b // a, as 2**t is an integer
    return (p.denominator // p.numerator).bit_length() - 1


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
