"""Delta-occasion analysis of the standardized merge process.

The delta occasion is the first moment at which the two smallest remaining
masses sum to at least p1: delta is the number of merges strictly before
it.  Because merge sums never decrease, delta is simply the count of merge
sums below p1.  Until then p1 itself is never selected to merge, so the top
codeword length is read off a near-uniform state:

    l1 = floor(log2(n - delta))        (valid whenever p1 < 1/2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from prefixcode import kernel
from prefixcode.distributions import FiniteDistribution
from prefixcode.errors import OutOfRangeError, TrivialCaseError
from prefixcode.huffman import MergeState
from prefixcode.numutil import exact_fraction, floor_log2, floor_neg_log2, rat_str

class DeltaKind(enum.Enum):
    TRIVIAL = "trivial"  # p1 >= 1/2: l1 = 1, no delta occasion exists
    ZERO = "zero"        # the two smallest already reach p1
    FOUND = "found"


@dataclass(frozen=True)
class DeltaResult:
    kind: DeltaKind
    delta: int | None
    state: MergeState | None  # state at m = delta (None in the trivial case)

    @property
    def trivial(self) -> bool:
        return self.kind is DeltaKind.TRIVIAL

    @property
    def l1(self) -> int:
        """Top codeword length floor(log2(n - delta)); the state at the
        delta occasion has n - delta entries."""
        if self.trivial:
            raise TrivialCaseError("p1 >= 1/2: the top codeword length is 1")
        return floor_log2(len(self.state))


def delta_occasion(dist: FiniteDistribution) -> DeltaResult:
    """Locate the delta occasion by running the standardized merges up to it."""
    nums, den = dist.common_numerators()
    if 2 * nums[0] >= den:  # p1 >= 1/2
        return DeltaResult(DeltaKind.TRIVIAL, None, None)
    delta, vals = kernel.merge_until(nums, nums[0])
    state = MergeState(delta, vals, den)
    return DeltaResult(DeltaKind.FOUND if delta else DeltaKind.ZERO, delta, state)


def l1_via_delta(dist: FiniteDistribution) -> int:
    """Top codeword length from the delta occasion alone."""
    return delta_occasion(dist).l1


def l1_lower_bound(p: Fraction) -> int:
    """floor(-log2 p): a lower bound on l1 whenever p1 < p."""
    p = exact_fraction(p)
    if not 0 < p < 1:
        raise OutOfRangeError(f"p must be in (0, 1), got {rat_str(p)}")
    return floor_neg_log2(p)


def delta_bounds(
    p1: Fraction,
    n: int,
    a: Fraction | None = None,
    b: Fraction | None = None,
) -> tuple[Fraction | None, Fraction | None]:
    """Exclusive bounds on delta from thresholds around p1.

    Returns ``(upper, lower)``: delta < n - 1/b when p1 < b, and
    delta > n - 2/a + 1 when p1 > a.  A side is None when its threshold is
    missing or its premise fails.
    """
    p1 = exact_fraction(p1)
    upper = lower = None
    if b is not None:
        b = exact_fraction(b)
        if not 0 < b < 1:
            raise OutOfRangeError(f"b must be in (0, 1), got {rat_str(b)}")
        if p1 < b:
            upper = n - 1 / b
    if a is not None:
        a = exact_fraction(a)
        if not 0 < a < 1:
            raise OutOfRangeError(f"a must be in (0, 1), got {rat_str(a)}")
        if p1 > a:
            lower = n - 2 / a + 1
    return upper, lower
