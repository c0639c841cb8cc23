"""Probability intervals that pin down the top codeword length.

For every k >= 1 the open interval (2/(2**(k+1)+1), 1/(2**k-1)) forces the
top codeword length to be exactly k, for finite sources and (through
truncation convergence) for infinite ones.  Consecutive intervals are
separated by genuine gaps where no value of p1 determines l1; the three
counterexample families in :mod:`prefixcode.distributions` witness this for
the gap around the k = 2 interval.

p1 >= 1/2 is handled by a special rule: the top length is necessarily 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from prefixcode.errors import OutOfRangeError
from prefixcode.numutil import floor_neg_log2
from prefixcode.sources import SourceSpec

_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class L1Interval:
    """The k-th open interval of top probabilities forcing l1 = k."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise OutOfRangeError(f"k must be >= 1, got {self.k}")

    @property
    def lower(self) -> Fraction:
        return Fraction(2, 2 ** (self.k + 1) + 1)

    @property
    def upper(self) -> Fraction:
        return Fraction(1, 2**self.k - 1)

    def contains(self, p: Fraction) -> bool:
        return self.lower < p < self.upper


def interval_for(k: int) -> L1Interval:
    return L1Interval(k)


@dataclass(frozen=True)
class L1Classification:
    """Outcome of classifying p1: a forced length k, or no determination.

    ``half_rule`` flags that k = 1 came from the p1 >= 1/2 rule rather than
    strict interval membership.  ``gap`` names the two interval indices the
    undetermined value falls between.
    """

    k: int | None
    half_rule: bool = False
    gap: tuple[int, int] | None = None

    @property
    def determined(self) -> bool:
        return self.k is not None


def classify_l1(p1: Fraction) -> L1Classification:
    """Classify a top probability; open intervals, boundaries excluded."""
    p1 = Fraction(p1)
    if not 0 < p1 < 1:
        raise OutOfRangeError(f"p1 must be in (0, 1), got {p1}")
    if p1 >= _HALF:
        return L1Classification(k=1, half_rule=True)
    # k is the least index with lower(k) < p1, i.e. 2**(k+1) + 1 > 2/p1.
    # With t = floor(log2(1/p1)) >= 1, 2**t <= 1/p1 < 2**(t+1) makes that
    # t or t + 1.
    k = floor_neg_log2(p1)
    if L1Interval(k).lower >= p1:
        k += 1
    if p1 < L1Interval(k).upper:
        return L1Classification(k=k)
    return L1Classification(k=None, gap=(k - 1, k))


def classify_l1_infinite(spec: SourceSpec) -> L1Classification:
    """Classification of an infinite source's optimal top length.

    The verdict is read from p1 alone; truncation convergence carries the
    finite-interval conclusion over to the infinite source's optimal code.
    """
    return classify_l1(spec.prob(1))


@dataclass(frozen=True)
class CoverageBounds:
    """Exact partial sum of interval widths plus certified total bounds.

    The infinite sum of widths lies strictly between ``lower`` and
    ``upper``: the tail only adds positive width, and the tail of the upper
    endpoints is below 2**-(terms-1).
    """

    terms: int
    partial: Fraction
    lower: Fraction
    upper: Fraction


def coverage_sum(terms: int) -> CoverageBounds:
    """Sum the first ``terms`` interval widths and bound the infinite sum."""
    if terms < 1:
        raise OutOfRangeError(f"terms must be >= 1, got {terms}")
    partial = sum(
        (L1Interval(k).upper - L1Interval(k).lower for k in range(1, terms + 1)),
        Fraction(0),
    )
    return CoverageBounds(
        terms=terms,
        partial=partial,
        lower=partial,
        upper=partial + Fraction(1, 2 ** (terms - 1)),
    )
