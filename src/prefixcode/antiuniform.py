"""Anti-uniform sources: maximally skewed optimal codes.

A finite source on n symbols is anti-uniform when it admits an optimal code
with lengths 1, 2, ..., n-1, n-1; the infinite analogue is l_i = i for all
i.  The finite test is exact suffix-sum domination,

    p_{i+2} + ... + p_n <= p_i    for 1 <= i <= n-3,

and the infinite test replaces the finite tail with the exact tail mass
1 - S_(i+1), confirmed against the source's exact partial sum.  The alpha
criterion certifies the infinite pattern from the conditional ratios
alone: it suffices that (1-a_i)(1-a_{i+1}) <= a_i for all consecutive
pairs, which a per-element polynomial threshold implies.
The threshold is the algebraic root of (1-x)**2 = x; it is irrational, so
it is never stored as a number and membership is decided by the exact sign
of x**2 - 3x + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from prefixcode.distributions import FiniteDistribution
from prefixcode.errors import OutOfRangeError
from prefixcode.huffman import LengthVector, huffman_lengths
from prefixcode.sources import (
    AlphaSequence,
    AlphaVector,
    SourceSpec,
    check_head_sum,
    coerce_alphas,
    truncate,
)

# Largest --depth of the infinite-tail test: the exact tail masses grow in
# size with the index, so the work grows faster than depth.
MAX_DEPTH = 4096


@dataclass(frozen=True)
class AntiUniformVerdict:
    """Outcome of a tail-domination check.

    ``first_violation`` is the smallest index i where the condition fails;
    ``witness`` carries the exact (tail sum, p_i) pair at that index.
    """

    holds: bool
    first_violation: int | None = None
    witness: tuple[Fraction, Fraction] | None = None


def check_finite(dist: FiniteDistribution) -> AntiUniformVerdict:
    """Exact suffix-sum test over all 1 <= i <= n-3 (vacuous for n <= 3).

    Runs on the integer numerators: p_{i+2} + ... + p_n is den minus the
    running head sum p_1 + ... + p_{i+1}.
    """
    nums, den = dist.common_numerators()
    head = nums[0]
    for i in range(1, len(nums) - 2):
        head += nums[i]
        tail = den - head
        if tail > nums[i - 1]:
            return AntiUniformVerdict(False, i, (Fraction(tail, den), Fraction(nums[i - 1], den)))
    return AntiUniformVerdict(True)


def check_depth(depth: int) -> None:
    """Raise :class:`OutOfRangeError` unless 1 <= depth <= MAX_DEPTH."""
    if depth < 1:
        raise OutOfRangeError(f"depth must be >= 1, got {depth}")
    if depth > MAX_DEPTH:
        raise OutOfRangeError(f"depth {depth} exceeds the limit {MAX_DEPTH}")


def check_infinite_tail(spec: SourceSpec, depth: int) -> AntiUniformVerdict:
    """Exact infinite-tail test for all 1 <= i <= depth.

    Runs on the integer prefix p_1..p_(depth+1) over its denominator: the
    tail after symbol i + 1 is den minus the running head sum.  That head
    sum is checked against the spec's exact S_(i+1) at the index
    reported, or at depth + 1 when the test holds.
    """
    check_depth(depth)
    nums, den = spec.prefix_numerators(depth + 1)
    head = nums[0]
    for i in range(1, depth + 1):
        head += nums[i]
        if den - head > nums[i - 1]:
            check_head_sum(spec, i + 1, head, den)
            return AntiUniformVerdict(
                False, i, (Fraction(den - head, den), Fraction(nums[i - 1], den)))
    check_head_sum(spec, depth + 1, head, den)
    return AntiUniformVerdict(True)


def alpha_criterion(alphas: AlphaVector | Sequence[Fraction]) -> bool:
    """Per-element threshold test: every a satisfies a**2 - 3a + 1 <= 0.

    Over (0, 1) this is exactly a >= root of (1-x)**2 = x, evaluated
    without ever materializing the irrational root.
    """
    return all(a * a - 3 * a + 1 <= 0 for a in coerce_alphas(alphas))


def alpha_pairwise_criterion(alphas: AlphaVector | Sequence[Fraction]) -> bool:
    """Consecutive-pair product test: (1-a_i)(1-a_{i+1}) <= a_i.

    The last listed ratio repeats forever, so the final self-pair
    (1-a)**2 <= a is included.  This is the minimal condition the
    anti-uniform argument needs; :func:`alpha_criterion` implies it.
    """
    avec = coerce_alphas(alphas)
    pairs = list(zip(avec, avec[1:])) + [(avec[-1], avec[-1])]
    return all((1 - a) * (1 - b) <= a for a, b in pairs)


def anti_uniform_lengths(n: int) -> LengthVector:
    """The skewed length vector 1, 2, ..., n-1, n-1 (Kraft sum exactly 1)."""
    if n < 2:
        raise OutOfRangeError(f"n must be >= 2, got {n}")
    return LengthVector(tuple(range(1, n)) + (n - 1,))


def verify_truncation_anti_uniform(
    alphas: AlphaVector | Sequence[Fraction], n: int
) -> bool:
    """Check the criterion's promise at one truncation size.

    Builds the size-n truncation of the source induced by the ratios (last
    ratio repeating), and confirms both that the suffix-sum test holds and
    that the deterministic Huffman lengths are exactly 1, 2, ..., n-1, n-1.
    Construction errors (for example ratio lists inducing an unsorted
    source) propagate.
    """
    avec = coerce_alphas(alphas)
    if n < 4:
        raise OutOfRangeError(f"n must be >= 4, got {n}")
    if not alpha_criterion(avec):
        raise OutOfRangeError("alpha vector does not pass the threshold criterion")
    dist = truncate(AlphaSequence(avec), n)
    if not check_finite(dist).holds:
        return False
    return huffman_lengths(dist) == anti_uniform_lengths(n)
