"""Brute-force optimality certifier.

Every complete binary prefix code corresponds to a Kraft-tight length
multiset (the leaf-depth profile of a full binary tree), and no optimal
code wastes Kraft mass, so minimizing sum(p_i * l_i) over all Kraft-tight
non-decreasing vectors certifies optimality.  Profiles are generated by
expanding the tree level by level (choosing how many nodes of each depth
are leaves), which produces each profile exactly once and stays feasible
through n = 14.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from prefixcode.distributions import FiniteDistribution
from prefixcode.errors import OutOfRangeError, UniverseTooLargeError
from prefixcode.huffman import LengthVector

_MAX_N = 14


@dataclass(frozen=True)
class OptimalSet:
    """Exact minimum expected length and every vector achieving it."""

    optimum: Fraction
    vectors: tuple[LengthVector, ...]

    def contains(self, lengths: LengthVector) -> bool:
        target = tuple(sorted(lengths))
        return any(tuple(v) == target for v in self.vectors)


def enumerate_kraft_tight(n: int, max_len: int | None = None) -> Iterator[LengthVector]:
    """Yield every non-decreasing vector with sum(2**-l) = 1, each once.

    ``max_len`` defaults to n - 1, the deepest leaf any binary code tree on
    n leaves can have; a larger cap allows nothing more and is clamped to it.
    """
    if n < 2:
        raise OutOfRangeError(f"n must be >= 2, got {n}")
    if n > _MAX_N:
        raise UniverseTooLargeError(f"n = {n} exceeds the certifiable limit {_MAX_N}")
    max_len = n - 1 if max_len is None else min(max_len, n - 1)
    min_len = (n - 1).bit_length()  # ceil(log2 n)
    if max_len < min_len:
        raise OutOfRangeError(f"max_len {max_len} cannot host {n} leaves")

    counts: list[int] = []

    def expand(depth: int, slots: int, remaining: int) -> Iterator[LengthVector]:
        if depth == max_len:
            if slots == remaining:
                counts.append(remaining)
                yield _profile_to_vector(counts)
                counts.pop()
            return
        capacity_next = 1 << (max_len - depth - 1)
        for leaves_here in range(slots + 1):
            internal = slots - leaves_here
            left = remaining - leaves_here
            # every internal slot yields at least 2 leaves, and at most
            # 2 * capacity_next within the depth budget
            if left < 2 * internal:
                continue
            if left > 2 * internal * capacity_next:
                continue
            counts.append(leaves_here)
            yield from expand(depth + 1, 2 * internal, left)
            counts.pop()

    yield from expand(1, 2, n)


def _profile_to_vector(counts: list[int]) -> LengthVector:
    lengths: list[int] = []
    for depth, c in enumerate(counts, start=1):
        lengths.extend([depth] * c)
    return LengthVector(tuple(lengths))


def count_kraft_tight(n: int, max_len: int | None = None) -> int:
    """Size of the enumeration universe."""
    return sum(1 for _ in enumerate_kraft_tight(n, max_len))


def optimal_lengths(dist: FiniteDistribution) -> OptimalSet:
    """Exact minimum of sum(p_i * l_i) and all minimizing vectors."""
    nums, den = dist.common_numerators()
    best: int | None = None
    argmins: list[LengthVector] = []
    for vec in enumerate_kraft_tight(dist.n):
        cost = sum(w * l for w, l in zip(nums, vec))
        if best is None or cost < best:
            best = cost
            argmins = [vec]
        elif cost == best:
            argmins.append(vec)
    assert best is not None
    return OptimalSet(Fraction(best, den), tuple(argmins))
