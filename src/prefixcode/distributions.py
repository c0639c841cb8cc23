"""Finite probability distributions with exact rational entries.

A :class:`FiniteDistribution` is sorted non-increasing, strictly positive,
and sums to exactly 1; every construction path validates all three.  Float
inputs convert through their shortest decimal rendering (``0.4`` becomes
2/5), never through their binary expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from prefixcode.errors import (
    EpsilonOutOfRangeError,
    NonPositiveEntryError,
    NotNormalizedError,
    NotSortedError,
    TooFewEntriesError,
)
from prefixcode.numutil import common_numerators, exact_fraction


@dataclass(frozen=True)
class FiniteDistribution:
    """Sorted probability vector p1 >= p2 >= ... >= pn > 0 with sum exactly 1."""

    probs: tuple[Fraction, ...]

    def __post_init__(self):
        probs = tuple(exact_fraction(p) for p in self.probs)
        object.__setattr__(self, "probs", probs)
        if len(probs) < 2:
            raise TooFewEntriesError("a distribution needs at least 2 symbols")
        for p in probs:
            if p <= 0:
                raise NonPositiveEntryError(f"entry {p} is not strictly positive")
        for a, b in zip(probs, probs[1:]):
            if a < b:
                raise NotSortedError(f"{a} < {b}: entries must be non-increasing")
        total = sum(probs)
        if total != 1:
            raise NotNormalizedError(total)

    @property
    def n(self) -> int:
        return len(self.probs)

    @property
    def p1(self) -> Fraction:
        return self.probs[0]

    def __len__(self) -> int:
        return len(self.probs)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.probs)

    def common_numerators(self) -> tuple[list[int], int]:
        """Integer numerators over the least common denominator."""
        return common_numerators(self.probs)


def validate(probs: Iterable[Fraction]) -> FiniteDistribution:
    """Check sortedness, positivity, and exact normalization; return the
    distribution unchanged if all hold."""
    return FiniteDistribution(tuple(probs))


# The three perturbation families showing that outside the open intervals
# classified by classify_l1 the top codeword length is not pinned down:
# family 1 covers p1 in [1/3, 1/2) with l1 = 1, families 2 and 3 cover
# (1/6, 2/9] and [1/8, 1/6] with l1 = 3.
_THIRD = Fraction(1, 3)
_NINTH = Fraction(1, 9)
_TWELFTH = Fraction(1, 12)


def counterexample(family: int, epsilon: Fraction) -> FiniteDistribution:
    """Build the perturbed gap-family distribution for the given epsilon."""
    e = exact_fraction(epsilon)
    if family == 1:
        if not 0 <= e < Fraction(1, 6):
            raise EpsilonOutOfRangeError(f"family 1 needs 0 <= eps < 1/6, got {e}")
        probs = (_THIRD + e, _THIRD, _THIRD - e)
    elif family == 2:
        if not 0 <= e < Fraction(1, 18):
            raise EpsilonOutOfRangeError(f"family 2 needs 0 <= eps < 1/18, got {e}")
        probs = (Fraction(2, 9) - e, _NINTH + e) + (_NINTH,) * 6
    elif family == 3:
        if not 0 <= e <= Fraction(1, 24):
            raise EpsilonOutOfRangeError(f"family 3 needs 0 <= eps <= 1/24, got {e}")
        probs = (Fraction(1, 6) - e, _TWELFTH + e) + (_TWELFTH,) * 9
    else:
        raise ValueError(f"family must be 1, 2 or 3, got {family}")
    return FiniteDistribution(probs)
