"""Seeded generators of exact rational test instances."""

from __future__ import annotations

import random
from fractions import Fraction

from prefixcode import (
    AlphaSequence,
    AlphaVector,
    ExplicitHead,
    FiniteDistribution,
    Geometric,
    SourceSpec,
    interval_for,
    validate,
)
from prefixcode.errors import NotSortedError


def random_distribution(rng: random.Random, n: int, scale: int = 10**6) -> FiniteDistribution:
    """Plain random distribution from integer weights."""
    weights = [rng.randint(1, scale) for _ in range(n)]
    total = sum(weights)
    return validate(sorted((Fraction(w, total) for w in weights), reverse=True))


def tie_heavy_distribution(rng: random.Random, n: int) -> FiniteDistribution:
    """Weights from a few small values, so equal masses and merge-sum ties
    are the rule."""
    weights = sorted((rng.choice((1, 1, 2, 2, 3, 4)) for _ in range(n)), reverse=True)
    total = sum(weights)
    return validate([Fraction(w, total) for w in weights])


def near_uniform_distribution(rng: random.Random, n: int, base: int = 1000) -> FiniteDistribution:
    """Weights drawn from [W, 2W-1], so any two entries dominate the max."""
    w = rng.randint(base, 2 * base)
    weights = [rng.randint(w, 2 * w - 1) for _ in range(n)]
    total = sum(weights)
    return validate(sorted((Fraction(x, total) for x in weights), reverse=True))


def distribution_with_p1(
    rng: random.Random, p1: Fraction, n: int, scale: int = 1000, tries: int = 200
) -> FiniteDistribution:
    """Distribution whose top probability is exactly p1 (needs n >= 1/p1)."""
    rest = 1 - p1
    m = n - 1
    if m * p1 < rest:
        raise ValueError(f"(p1={p1}, n={n}) is infeasible")
    a, b = p1.numerator, p1.denominator
    for _ in range(tries):
        weights = [rng.randint(1, scale) for _ in range(m)]
        total = sum(weights)
        # max(others) <= p1 with others = rest * w / total, in integers;
        # the others sort as their weights do, and p1 is the largest
        if (b - a) * max(weights) <= a * total:
            weights.sort(reverse=True)
            return validate([p1] + [Fraction((b - a) * w, b * total) for w in weights])
    # equal split is always feasible
    return validate(sorted([p1] + [rest / m] * m, reverse=True))


def random_p1_inside_interval(rng: random.Random, k: int, steps: int = 997) -> Fraction:
    """Rational strictly inside the k-th classification interval."""
    iv = interval_for(k)
    j = rng.randint(1, steps - 1)
    return iv.lower + (iv.upper - iv.lower) * Fraction(j, steps)


def interval_instance(rng: random.Random, k: int, n_max: int = 200) -> FiniteDistribution:
    """Random distribution with p1 strictly inside interval k."""
    p1 = random_p1_inside_interval(rng, k)
    ceil_inv = (p1.denominator + p1.numerator - 1) // p1.numerator
    n_lo = max(2**k, ceil_inv)
    n = rng.randint(n_lo, max(n_lo, n_max))
    return distribution_with_p1(rng, p1, n)


def distribution_with_p1_below_half(
    rng: random.Random, n: int, denom_hi: int = 10**6
) -> FiniteDistribution:
    """Random distribution with 1/n < p1 < 1/2 (needs n >= 3)."""
    if n < 3:
        raise ValueError("p1 < 1/2 requires n >= 3")
    d = rng.randint(max(32, n + 1), denom_hi)
    lo = d // n + 1
    hi = (d - 1) // 2
    p1 = Fraction(rng.randint(lo, hi), d)
    return distribution_with_p1(rng, p1, n)


def random_alpha_vector(
    rng: random.Random,
    length: int,
    lo_milli: int = 382,
    hi_milli: int = 999,
) -> AlphaVector:
    """Ratios in [lo, hi] thousandths whose induced prefix is non-increasing.

    Each next ratio is capped at prev/(1-prev), the exact sortedness bound.
    """
    alphas: list[Fraction] = []
    for _ in range(length):
        cap = Fraction(hi_milli, 1000)
        if alphas:
            prev = alphas[-1]
            cap = min(cap, prev / (1 - prev))
        hi_num = min(hi_milli, int(cap * 1000))
        alphas.append(Fraction(rng.randint(lo_milli, hi_num), 1000))
    return AlphaVector(tuple(alphas))


def random_source(rng: random.Random) -> SourceSpec:
    """A geometric, alpha-list or explicit-head source with small, mixed
    denominators (ties included)."""
    kind = rng.randrange(3)
    if kind == 0:
        q = rng.randint(2, 60)
        return Geometric(Fraction(rng.randint(1, q - 1), q))
    if kind == 1:
        while True:
            alphas = []
            for _ in range(rng.randint(1, 6)):
                q = rng.randint(2, 30)
                alphas.append(Fraction(rng.randint(1, q - 1), q))
            try:
                return AlphaSequence(tuple(alphas))
            except NotSortedError:
                continue
    # head w_i/total, tail mass rest/total, first tail entry at most w_k/total
    weights = sorted((rng.randint(1, 20) for _ in range(rng.randint(1, 4))), reverse=True)
    rest = rng.randint(1, 20)
    total = sum(weights) + rest
    cap = min(Fraction(1), Fraction(weights[-1], rest))
    ratio = cap * Fraction(rng.randint(1, 99), 100)
    return ExplicitHead(tuple(Fraction(w, total) for w in weights), ratio)
