"""Exact integer and rational helpers: :func:`exact_fraction`, the one reader
of numbers from outside the package, then log2 floors and exact renderings
in pure integer arithmetic; no value is ever rounded through a float.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from prefixcode.errors import OutOfRangeError, ParseError

# Largest size of a literal's decimal exponent: Fraction builds
# 10**exponent whatever its size, so "1e-1000000000" would ask for a
# 3.3-billion-bit integer.
MAX_EXPONENT = 10**5

# Fraction's grammar of a decimal literal with an exponent, which it captures
_DECIMAL_EXP = re.compile(
    r"[-+]?(?=\d|\.\d)(?:\d+(?:_\d+)*)?(?:\.(?:\d+(?:_\d+)*)?)?e([-+]?\d+(?:_\d+)*)",
    re.IGNORECASE)


def exact_fraction(value) -> Fraction:
    """The exact rational that a library argument, CLI string or file line
    names.  A Fraction is returned as it is; a float reads as its shortest
    decimal (0.4 is 2/5), not its binary expansion; a string, once stripped,
    follows ``Fraction``'s Python 3.11 grammar and message (no inner
    whitespace, though 3.12 accepts "5 / 3"), refuses an exponent over
    ``MAX_EXPONENT`` in size before ``Fraction`` builds its power of ten, and
    raises :class:`ParseError` when malformed (as a float's nan and inf are);
    any other value goes to ``Fraction``.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        value = repr(value)
    elif not isinstance(value, str):
        return Fraction(value)
    literal = value.strip()
    try:
        if any(map(str.isspace, literal)):
            raise ValueError(f"Invalid literal for Fraction: {literal!r}")
        exp = _DECIMAL_EXP.fullmatch(literal)
        if exp and abs(int(exp[1])) > MAX_EXPONENT:
            raise ValueError(f"its exponent exceeds the limit of {MAX_EXPONENT}")
        return Fraction(literal)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"cannot parse rational {value!r}: {exc}") from None


def rat_str(x) -> str:
    """Exact "a/b" rendering of a rational of any size (see
    :func:`weight_strs`)."""
    x = exact_fraction(x)
    return weight_strs((x.numerator,), x.denominator)[0]


# Denominator bit lengths at which weight_strs reduces through one shared
# gcd.  Up to 64 bits a gcd is a short machine-word loop; past about 4096
# bits the product step, a multiplication and a schoolbook division by the
# denominator, costs 1.1-1.3 times the gcd it replaces.
SHARED_GCD_BITS = range(65, 4097)


def shared_divisor(nums: Sequence[int], den: int) -> int:
    """G = gcd(den, P), P the product mod ``den`` of the weights in ``nums``
    other than ``den`` itself, for ``den > 0``: one product step per weight
    and one gcd in all.

    Every such weight v has gcd(v, den) = gcd(v, G): gcd(v, den) divides
    both den and P, so it divides G, and G divides den.  A truncation's
    weights give G = 1 and its merge sums a small G.
    """
    product = 1
    for v in nums:
        if v != den:
            product = product * v % den
    return gcd(den, product)


def weight_strs(nums: Sequence[int], den: int) -> list[str]:
    """Exact rendering of each weight v/den, for ``den > 0``: the string of
    ``Fraction(v, den)``, built from gcd, ``//`` and ``str`` alone, with each
    distinct reduced denominator rendered once.

    A weight v other than ``den`` is reduced by gcd(v, G), with G the
    :func:`shared_divisor` of the list when ``den`` has a bit length in
    ``SHARED_GCD_BITS`` and ``den`` itself otherwise: on a truncation's
    weights G is 1, so no gcd is full size.

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
        shared = shared_divisor(nums, den) if den.bit_length() in SHARED_GCD_BITS else den
        suffixes = {den: ""}  # keyed by the gcd: den // g is the reduced denominator
        out = []
        for v in nums:
            g = den if v == den else gcd(v, shared)
            suffix = suffixes.get(g)
            if suffix is None:
                suffix = suffixes[g] = "/" + str(den // g)
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
    p = exact_fraction(p)
    if not 0 < p <= 1:
        raise OutOfRangeError(f"floor_neg_log2 needs 0 < p <= 1, got {rat_str(p)}")
    # for p = a/b the largest t with a * 2**t <= b: 2**t <= b/a exactly
    # when 2**t <= b // a, as 2**t is an integer
    return (p.denominator // p.numerator).bit_length() - 1


def _scaled(x: Fraction, places: int) -> tuple[int, int]:
    x = exact_fraction(x)
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
