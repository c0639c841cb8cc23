"""Distribution files and source literals.

File format: UTF-8 text (a leading byte-order mark is skipped), one rational
per line, either "a/b" or a decimal literal (parsed exactly, so 0.4 means
2/5); lines starting with '#' and blank lines are ignored.

Source literals: "geom:a/b", "alpha:[a/b,c/d,...]" (a finite list; the last
ratio repeats forever), or "file:PATH" for a finite distribution.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import lcm
from pathlib import Path

from prefixcode.distributions import FiniteDistribution
from prefixcode.errors import PrefixCodeError
from prefixcode.sources import AlphaSequence, Geometric, SourceSpec


class ParseError(PrefixCodeError):
    """Malformed rational, distribution file, or source literal."""


def parse_rational(text: str) -> Fraction:
    """Parse "a/b", an integer, or a decimal literal to its exact value.

    The grammar is ``Fraction``'s on Python 3.11, whose message a rejected
    literal keeps: no whitespace inside the literal, though later versions
    accept "5 / 3".
    """
    literal = text.strip()
    try:
        if any(map(str.isspace, literal)):
            raise ValueError(f"Invalid literal for Fraction: {literal!r}")
        return Fraction(literal)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"cannot parse rational {text!r}: {exc}") from None


def read_distribution_file(path: str | Path) -> FiniteDistribution:
    """Read one rational per line; '#' comments and blank lines allowed.

    A line of ASCII digits "a/b" with b nonzero is split into integers
    directly; every other line goes through :func:`parse_rational`.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None
    digits = sys.get_int_max_str_digits() or len(text)
    nums, dens = [], []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        a, _, b = line.partition("/")
        # ASCII digits over a nonzero denominator, too short for int() to
        # reach the int-to-str digit limit
        if (line.isascii() and a.isdigit() and b.isdigit() and b.strip("0")
                and len(line) <= digits):
            nums.append(int(a))
            dens.append(int(b))
            continue
        try:
            x = parse_rational(line)
        except ParseError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
        nums.append(x.numerator)
        dens.append(x.denominator)
    den = lcm(*dens)
    return FiniteDistribution(
        [v if d == den else v * (den // d) for v, d in zip(nums, dens)], den)


def parse_source(text: str) -> FiniteDistribution | SourceSpec:
    """Resolve a source literal to a finite distribution or a spec."""
    text = text.strip()
    if text.startswith("geom:"):
        return Geometric(parse_rational(text[len("geom:") :]))
    if text.startswith("alpha:"):
        body = text[len("alpha:") :].strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ParseError(f"alpha literal must look like alpha:[a/b,...], got {text!r}")
        parts = [p for p in body[1:-1].split(",") if p.strip()]
        if not parts:
            raise ParseError("alpha literal needs at least one ratio")
        return AlphaSequence(tuple(parse_rational(p) for p in parts))
    if text.startswith("file:"):
        return read_distribution_file(text[len("file:") :])
    raise ParseError(
        f"unrecognized source {text!r}; expected geom:a/b, alpha:[...], or file:PATH"
    )
