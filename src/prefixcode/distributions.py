"""Finite probability distributions as integer weights over one denominator.

A :class:`FiniteDistribution` is sorted non-increasing, strictly positive,
and sums to exactly 1; it stores integer weights over a shared denominator
in lowest terms, validated once, at construction (:func:`check_weights`).
Exact probabilities become weights only in :func:`validate`,
:func:`counterexample` and the distribution-file reader; float inputs convert
through their shortest decimal rendering (``0.4`` becomes 2/5), never through
their binary expansion.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd
from typing import Iterable, Iterator, Sequence

from prefixcode.errors import (
    EpsilonOutOfRangeError,
    NonPositiveEntryError,
    NotNormalizedError,
    NotSortedError,
    TooFewEntriesError,
)
from prefixcode.numutil import common_numerators, exact_fraction, rat_str


def check_weights(vals: Sequence[int], den: int) -> None:
    """Check integer weights over a denominator `den` > 0: non-empty,
    positive, non-increasing, and summing to exactly `den`, in that order.

    Every distribution, merge state and truncation is validated here; the
    messages render the weights as exact rationals of any size.
    """
    if not vals:
        raise TooFewEntriesError("a weight list cannot be empty")
    if min(vals) <= 0:
        v = next(v for v in vals if v <= 0)
        raise NonPositiveEntryError(f"entry {rat_str(Fraction(v, den))} is not strictly positive")
    if any(map(operator.lt, vals, islice(vals, 1, None))):
        a, b = next((a, b) for a, b in zip(vals, vals[1:]) if a < b)
        raise NotSortedError(
            f"{rat_str(Fraction(a, den))} < {rat_str(Fraction(b, den))}:"
            " entries must be non-increasing"
        )
    total = sum(vals)
    if total != den:
        raise NotNormalizedError(Fraction(total, den))


class Weights:
    """Base of records holding integer weights ``nums`` over ``den``: the
    exact probabilities are a view, built on each access."""

    def _store(self) -> None:
        """Check the weights, then keep them in lowest terms; they are
        rebuilt only when they share a factor with ``den``."""
        nums, den = tuple(self.nums), self.den
        check_weights(nums, den)
        g = gcd(den, *nums)
        if g > 1:
            nums, den = tuple(v // g for v in nums), den // g
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    @property
    def probs(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(v, den) for v in self.nums)

    def __len__(self) -> int:
        return len(self.nums)


@dataclass(frozen=True)
class FiniteDistribution(Weights):
    """Sorted probability vector p1 >= p2 >= ... >= pn > 0 with sum exactly 1,
    stored as integer weights ``nums`` over ``den`` in lowest terms."""

    nums: tuple[int, ...]
    den: int

    def __post_init__(self):
        if len(self.nums) < 2:
            raise TooFewEntriesError("a distribution needs at least 2 symbols")
        self._store()

    @property
    def n(self) -> int:
        return len(self.nums)

    @property
    def p1(self) -> Fraction:
        return Fraction(self.nums[0], self.den)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.probs)

    def common_numerators(self) -> tuple[list[int], int]:
        """The weights as a fresh list, and their denominator."""
        return list(self.nums), self.den


def validate(probs: Iterable[Fraction]) -> FiniteDistribution:
    """Check sortedness, positivity, and exact normalization of exact
    probabilities; return them as weights over their least common
    denominator."""
    return FiniteDistribution(*common_numerators([exact_fraction(p) for p in probs]))


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
            raise EpsilonOutOfRangeError(f"family 1 needs 0 <= eps < 1/6, got {rat_str(e)}")
        probs = (_THIRD + e, _THIRD, _THIRD - e)
    elif family == 2:
        if not 0 <= e < Fraction(1, 18):
            raise EpsilonOutOfRangeError(f"family 2 needs 0 <= eps < 1/18, got {rat_str(e)}")
        probs = (Fraction(2, 9) - e, _NINTH + e) + (_NINTH,) * 6
    elif family == 3:
        if not 0 <= e <= Fraction(1, 24):
            raise EpsilonOutOfRangeError(f"family 3 needs 0 <= eps <= 1/24, got {rat_str(e)}")
        probs = (Fraction(1, 6) - e, _TWELFTH + e) + (_TWELFTH,) * 9
    else:
        raise ValueError(f"family must be 1, 2 or 3, got {family}")
    return validate(probs)
