"""Infinite sources given by their alpha covers, and the alpha parameterization.

The alpha view writes a distribution through its conditional tail ratios

    alpha_1 = p_1,    alpha_m = p_m / (1 - (p_1 + ... + p_{m-1})),

so that p_m = alpha_m * prod_{j<m}(1 - alpha_j) and the mass left after the
first n symbols is prod_{j<=n}(1 - alpha_j).  A constant alpha reproduces
the geometric family.

A source over symbols 1, 2, ... is one of three families (geometric, an
alpha sequence, an explicit head with a geometric tail).  Each supplies only
its alpha cover, a finite list of ratios whose last entry repeats forever;
:class:`SourceSpec` computes p_i, S_n = p_1 + ... + p_n and 1 - S_n from it
as exact rationals, with one implementation for every family.  That is what
keeps truncation exact: the truncated distribution is (p_1/S_n, ...,
p_n/S_n), and :func:`check_head_sum` confirms that a prefix really sums to
S_n.

``prefix_numerators(n)`` is the source of truth for p_1..p_n: integer
numerators over the product of the alpha denominators up to n (the bound of
:func:`check_denominator_bits`; not always lowest terms), each stepped from
the one before, p_(m+1) = p_m * alpha_(m+1) * (1 - alpha_m) / alpha_m, by a
small integer product and an exact division.  ``prefix_probs(n)`` is a
``Fraction`` view over it that no computation in the package reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Sequence

from prefixcode.distributions import FiniteDistribution
from prefixcode.errors import (
    AlphaOutOfRangeError,
    NotNormalizedError,
    NotSortedError,
    OutOfRangeError,
    PrefixMassReachesOneError,
    TooFewEntriesError,
)
from prefixcode.numutil import exact_fraction, rat_str

# Largest truncation size coded: `analyze`/`delta --truncate` and the
# `converge` sweep's n_max.  The shared denominator grows with n, so the
# work grows faster than n.
MAX_TRUNCATION = 4096

# Largest shared denominator, in bits, that a source prefix may need.  The
# exponent cap bounds one rational, not the n terms built from it: geom:
# with a 10**-100000 ratio needs 332k bits per term.  2**18 admits every
# prefix the tests and the benchmark build; the largest, a 10**-4400 ratio
# at n = 12, needs about 175k bits.
MAX_DENOMINATOR_BITS = 1 << 18


@dataclass(frozen=True)
class AlphaVector:
    """A finite vector of conditional ratios, each strictly inside (0, 1).

    The induced probability prefix is automatically positive with partial
    sums below 1; it is *not* required to be non-increasing (that stronger
    condition is enforced by :class:`AlphaSequence`, which models a whole
    source rather than a raw prefix).
    """

    alphas: tuple[Fraction, ...]

    def __post_init__(self):
        alphas = tuple(exact_fraction(a) for a in self.alphas)
        object.__setattr__(self, "alphas", alphas)
        if not alphas:
            raise TooFewEntriesError("alpha vector must be non-empty")
        for a in alphas:
            if not 0 < a < 1:
                raise AlphaOutOfRangeError(f"alpha {rat_str(a)} not in (0, 1)")

    def __len__(self) -> int:
        return len(self.alphas)

    def __iter__(self):
        return iter(self.alphas)


def coerce_alphas(alphas: AlphaVector | Sequence[Fraction]) -> tuple[Fraction, ...]:
    """The validated ratios of an :class:`AlphaVector` or a plain sequence."""
    if isinstance(alphas, AlphaVector):
        return alphas.alphas
    return AlphaVector(tuple(alphas)).alphas


def from_alphas(alphas: AlphaVector | Sequence[Fraction], n: int) -> tuple[Fraction, ...]:
    """First n probabilities induced by the ratios (an unnormalized prefix)."""
    avec = coerce_alphas(alphas)
    if n < 1:
        raise OutOfRangeError(f"n must be positive, got {n}")
    if n > len(avec):
        raise TooFewEntriesError(f"need at least {n} alphas, got {len(avec)}")
    probs = []
    residual = Fraction(1)
    for a in avec[:n]:
        probs.append(a * residual)
        residual *= 1 - a
    return tuple(probs)


def to_alphas(probs: Sequence[Fraction]) -> AlphaVector:
    """Exact inverse of :func:`from_alphas` on valid probability prefixes."""
    out = []
    residual = Fraction(1)
    for p in probs:
        p = exact_fraction(p)
        if p <= 0:
            raise OutOfRangeError(f"prefix entry {rat_str(p)} is not strictly positive")
        if p >= residual:
            raise PrefixMassReachesOneError(
                f"entry {rat_str(p)} consumes the remaining mass {rat_str(residual)}"
            )
        out.append(p / residual)
        residual -= p
    return AlphaVector(tuple(out))


class SourceSpec:
    """An infinite distribution given by its alpha cover.

    A family supplies ``alphas``: the conditional ratios alpha_1..alpha_L,
    whose last entry repeats forever, and ``literal()``, the spec literal
    for report echoes, exact at any size.  Every family here has an eventually
    constant alpha sequence, so p_i, S_n, 1 - S_n and the integer prefix
    are computed here, once, from that cover, and criteria quantified over
    all alphas can be decided exactly from it.
    """

    alphas: tuple[Fraction, ...]

    def alpha_at(self, i: int) -> Fraction:
        """alpha_i for a 1-based symbol index."""
        self._check_index(i)
        return self.alphas[min(i, len(self.alphas)) - 1]

    def prob(self, i: int) -> Fraction:
        """Exact p_i for a 1-based symbol index."""
        return self.alpha_at(i) * (self.tail_after(i - 1) if i > 1 else 1)

    def prefix_numerators(self, n: int) -> tuple[list[int], int]:
        """Integers [v_1, ..., v_n] and den with p_i = v_i / den exactly,
        for n >= 1; den is the product of the alpha denominators up to n
        and need not be in lowest terms.  Raises :class:`OutOfRangeError`
        before any term is built if den could pass MAX_DENOMINATOR_BITS
        bits (:func:`check_denominator_bits`)."""
        self._check_index(n)
        check_denominator_bits(self, n)
        alphas, listed = self.alphas, len(self.alphas)
        d = alphas[-1].denominator
        c = d - alphas[-1].numerator
        den = prod(x.denominator for x in alphas[:n]) * d ** max(n - listed, 0)
        nums = [den // alphas[0].denominator * alphas[0].numerator]
        for x, y in zip(alphas, alphas[1:n]):
            # p_(m+1) = p_m * y * (1 - x) / x, exactly
            nums.append(nums[-1] * y.numerator * (x.denominator - x.numerator)
                        // (x.numerator * y.denominator))
        # past the listed ratios each term is the one before it times
        # c/d = 1 - alpha_L, an exact division
        v = nums[-1]
        for _ in range(n - listed):
            v = v * c // d
            nums.append(v)
        return nums, den

    def prefix_probs(self, n: int) -> list[Fraction]:
        """Exact [p_1, ..., p_n], a view over :meth:`prefix_numerators`."""
        nums, den = self.prefix_numerators(n)
        return [Fraction(v, den) for v in nums]

    def head_sum(self, n: int) -> Fraction:
        """Exact S_n = p_1 + ... + p_n."""
        return 1 - self.tail_after(n)

    def tail_after(self, n: int) -> Fraction:
        """Exact 1 - S_n, the product of 1 - alpha_j over j <= n."""
        self._check_index(n)
        listed = len(self.alphas)
        residual = Fraction(1)
        for a in self.alphas[: min(n, listed)]:
            residual *= 1 - a
        if n > listed:
            residual *= (1 - self.alphas[-1]) ** (n - listed)
        return residual

    def alphas_cover(self) -> AlphaVector:
        """Finite alpha vector whose last entry repeats forever."""
        return AlphaVector(self.alphas)

    def _check_index(self, i: int) -> None:
        if i < 1:
            raise OutOfRangeError(f"symbol index must be >= 1, got {i}")


@dataclass(frozen=True)
class Geometric(SourceSpec):
    """p_i = ratio * (1 - ratio)**(i - 1); ratio is p_1 itself."""

    ratio: Fraction

    def __post_init__(self):
        ratio = exact_fraction(self.ratio)
        object.__setattr__(self, "ratio", ratio)
        if not 0 < ratio < 1:
            raise OutOfRangeError(f"ratio must be in (0, 1), got {rat_str(ratio)}")

    @property
    def alphas(self) -> tuple[Fraction, ...]:
        return (self.ratio,)

    # the view, bound per family: perfbench's tracer rebinds it by class
    prefix_probs = SourceSpec.prefix_probs

    def literal(self) -> str:
        return f"geom:{rat_str(self.ratio)}"


@dataclass(frozen=True)
class AlphaSequence(SourceSpec):
    """Source defined by conditional ratios; the last listed ratio repeats.

    Construction rejects ratio lists whose induced probabilities are not
    non-increasing, since a source is sorted by definition.  The repeated
    tail never breaks sortedness on its own (alpha * (1 - alpha) < alpha),
    so only consecutive listed pairs need checking.
    """

    alphas: tuple[Fraction, ...]

    def __post_init__(self):
        alphas = AlphaVector(tuple(self.alphas)).alphas
        object.__setattr__(self, "alphas", alphas)
        for a, b in zip(alphas, alphas[1:]):
            # p_{i+1} <= p_i  <=>  b * (1 - a) <= a
            if b * (1 - a) > a:
                raise NotSortedError(
                    f"ratios {rat_str(a)}, {rat_str(b)} induce an increasing probability pair"
                )

    prefix_probs = SourceSpec.prefix_probs

    def literal(self) -> str:
        return "alpha:[" + ",".join(map(rat_str, self.alphas)) + "]"


@dataclass(frozen=True)
class ExplicitHead(SourceSpec):
    """Explicit leading probabilities, then a geometric split of the rest.

    After the listed head the remaining mass M = 1 - sum(head) is spent as
    M * ratio * (1 - ratio)**(j - 1): the alpha cover is the head's
    conditional ratios, then the constant tail ratio.  The first tail entry
    must not exceed the last head entry.
    """

    head: tuple[Fraction, ...]
    ratio: Fraction

    def __post_init__(self):
        head = tuple(exact_fraction(p) for p in self.head)
        ratio = exact_fraction(self.ratio)
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "ratio", ratio)
        if not head:
            raise TooFewEntriesError("head must be non-empty")
        if not 0 < ratio < 1:
            raise OutOfRangeError(f"ratio must be in (0, 1), got {rat_str(ratio)}")
        # refuses a non-positive entry and a head mass of 1 or more
        object.__setattr__(self, "alphas", (*to_alphas(head), ratio))
        for a, b in zip(head, head[1:]):
            if a < b:
                raise NotSortedError(f"head entries {rat_str(a)} < {rat_str(b)} are not sorted")
        if (1 - sum(head)) * ratio > head[-1]:
            raise NotSortedError("first tail entry exceeds the last head entry")

    prefix_probs = SourceSpec.prefix_probs

    def literal(self) -> str:
        head = ",".join(map(rat_str, self.head))
        return f"head:[{head}]+geom:{rat_str(self.ratio)}"


def check_head_sum(spec: SourceSpec, n: int, total: int, den: int) -> None:
    """Raise :class:`NotNormalizedError` unless total/den is exactly S_n."""
    sn = spec.head_sum(n)
    if total * sn.denominator != sn.numerator * den:
        raise NotNormalizedError(Fraction(total, den) / sn)


def check_denominator_bits(spec: SourceSpec, n: int) -> int:
    """Raise :class:`OutOfRangeError` before the first n probabilities are
    built if their shared denominator could pass MAX_DENOMINATOR_BITS bits;
    otherwise return that bound on its bits.

    p_m = alpha_m * prod_{j<m}(1 - alpha_j), so every p_m with m <= n is a
    fraction over the product of the alpha denominators up to n, which is
    the denominator :meth:`SourceSpec.prefix_numerators` shares; its bits
    are at most the sum of theirs.
    """
    alphas = spec.alphas_cover().alphas
    bits = sum(a.denominator.bit_length() for a in alphas[:n])
    bits += max(n - len(alphas), 0) * alphas[-1].denominator.bit_length()
    if bits > MAX_DENOMINATOR_BITS:
        raise OutOfRangeError(
            f"the first {n} probabilities need a denominator of up to {bits} bits, "
            f"which exceeds the limit of {MAX_DENOMINATOR_BITS} bits"
        )
    return bits


def truncate(spec: SourceSpec, n: int) -> FiniteDistribution:
    """Keep the first n symbols and renormalize by the exact partial sum.

    The prefix's integer numerators over their own sum are the renormalized
    distribution (in lowest terms once stored); that sum is then checked
    against S_n.
    """
    if n < 2:
        raise OutOfRangeError(f"truncation needs n >= 2, got {n}")
    if n > MAX_TRUNCATION:
        raise OutOfRangeError(f"truncation size {n} exceeds the limit {MAX_TRUNCATION}")
    nums, den = spec.prefix_numerators(n)
    total = sum(nums)
    dist = FiniteDistribution(nums, total)
    check_head_sum(spec, n, total, den)
    return dist
