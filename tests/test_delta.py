"""Delta-occasion location, the closed form for l1, and its bounds."""

from fractions import Fraction as F

import pytest

from prefixcode import (
    DeltaKind,
    counterexample,
    delta_bounds,
    delta_occasion,
    huffman_lengths,
    l1_lower_bound,
    l1_via_delta,
    validate,
)
from prefixcode.errors import OutOfRangeError, TrivialCaseError
from prefixcode.kernel import run_merges, state_after
from randgen import distribution_with_p1_below_half, tie_heavy_distribution
from test_kernel import reference_merges


def full_run_delta(d):
    """Delta and its state as first computed: every merge run, the merge
    sums below p1 counted, then that many merges replayed."""
    nums, den = d.common_numerators()
    _, _, sums = run_merges(nums)
    delta = 0
    for s in sums:
        if s >= nums[0]:
            break
        delta += 1
    return delta, tuple(F(v, den) for v in state_after(nums, delta))


class TestDeltaOccasion:
    def test_zero_when_smallest_pair_dominates(self):
        result = delta_occasion(validate([F(1, 4)] * 4))
        assert result.kind is DeltaKind.ZERO
        assert result.delta == 0
        assert result.state.m == 0

    def test_found_after_one_merge(self):
        d = validate([F(2, 5), F(3, 10), F(1, 5), F(1, 10)])
        result = delta_occasion(d)
        assert result.kind is DeltaKind.FOUND
        assert result.delta == 1
        assert result.state.probs == (F(2, 5), F(3, 10), F(3, 10))

    def test_trivial_beats_zero(self):
        result = delta_occasion(validate([F(1, 2), F(1, 4), F(1, 4)]))
        assert result.kind is DeltaKind.TRIVIAL
        assert result.delta is None

    def test_bracketing_conditions(self, rng):
        # the merge entering state delta is below p1, the next one is not
        for _ in range(50):
            d = distribution_with_p1_below_half(rng, rng.randint(3, 30))
            result = delta_occasion(d)
            nums, den = d.common_numerators()
            _, _, sums = run_merges(nums)
            delta = result.delta
            if delta > 0:
                assert sums[delta - 1] < nums[0]
            assert sums[delta] >= nums[0]
            state = result.state.probs
            assert state[-1] + state[-2] >= d.p1

    def test_p1_not_merged_before_delta(self, rng):
        for _ in range(50):
            d = distribution_with_p1_below_half(rng, rng.randint(3, 30))
            delta = delta_occasion(d).delta
            nums, _ = d.common_numerators()
            parents = reference_merges(nums)[3]
            first_merge_of_p1 = parents[0] - (len(nums) - 1)
            assert first_merge_of_p1 > delta


class TestEarlyStop:
    def instances(self, rng):
        for _ in range(150):
            yield distribution_with_p1_below_half(rng, rng.randint(3, 64))
        for _ in range(150):
            d = tie_heavy_distribution(rng, rng.randint(3, 64))
            if d.p1 < F(1, 2):
                yield d
        yield counterexample(2, F(0))
        yield counterexample(2, F(1, 36))
        yield counterexample(3, F(0))
        yield counterexample(3, F(1, 24))
        yield validate([F(1, 4)] * 4)

    def test_matches_full_run_plus_replay(self, rng):
        kinds = set()
        for d in self.instances(rng):
            result = delta_occasion(d)
            assert (result.delta, result.state.probs) == full_run_delta(d)
            assert result.state.m == result.delta
            kinds.add(result.kind)
        assert kinds == {DeltaKind.ZERO, DeltaKind.FOUND}

    def test_counterexamples_at_zero_epsilon(self):
        # the two smallest masses tie with p1: a sum equal to p1 stops at once
        for family in (2, 3):
            d = counterexample(family, F(0))
            assert d.probs[-1] + d.probs[-2] == d.p1
            result = delta_occasion(d)
            assert result.kind is DeltaKind.ZERO
            assert (result.delta, result.state.probs) == full_run_delta(d) == (0, d.probs)


class TestL1ViaDelta:
    def test_example(self):
        d = validate([F(2, 5), F(3, 10), F(1, 5), F(1, 10)])
        assert l1_via_delta(d) == 1 == huffman_lengths(d)[0]

    def test_uniform_eight(self):
        d = validate([F(1, 8)] * 8)
        assert l1_via_delta(d) == 3

    def test_counterexample_family3(self):
        d = counterexample(3, F(0))
        assert l1_via_delta(d) == 3
        delta = delta_occasion(d).delta
        assert 8 <= d.n - delta <= 15

    def test_trivial_raises(self):
        with pytest.raises(TrivialCaseError):
            l1_via_delta(validate([F(1, 2), F(1, 4), F(1, 4)]))

    def test_matches_tree_on_random_instances(self, rng):
        for _ in range(200):
            d = distribution_with_p1_below_half(rng, rng.randint(3, 40))
            assert l1_via_delta(d) == huffman_lengths(d)[0]


class TestL1LowerBound:
    def test_examples(self):
        assert l1_lower_bound(F(1, 8)) == 3
        assert l1_lower_bound(F(1, 2)) == 1
        assert l1_lower_bound(F(3, 16)) == 2

    def test_out_of_range(self):
        for bad in (F(0), F(1), F(2), F(-1, 2)):
            with pytest.raises(OutOfRangeError):
                l1_lower_bound(bad)

    def test_bound_holds_on_random_instances(self, rng):
        for _ in range(60):
            d = distribution_with_p1_below_half(rng, rng.randint(3, 25))
            l1 = huffman_lengths(d)[0]
            for _ in range(3):
                b = d.p1 + (1 - d.p1) * F(rng.randint(1, 999), 1000)
                assert l1 >= l1_lower_bound(b)


class TestDeltaBounds:
    def test_upper_example(self):
        upper, lower = delta_bounds(F(2, 5), 4, b=F(1, 2))
        assert upper == 2 and lower is None

    def test_lower_example_can_be_vacuous(self):
        upper, lower = delta_bounds(F(2, 5), 4, a=F(1, 3))
        assert lower == -1 and upper is None

    def test_premise_failures_give_none(self):
        assert delta_bounds(F(2, 5), 4, a=F(2, 5), b=F(2, 5)) == (None, None)
        assert delta_bounds(F(2, 5), 4, a=F(9, 20)) == (None, None)

    def test_threshold_validation(self):
        with pytest.raises(OutOfRangeError):
            delta_bounds(F(1, 4), 8, b=F(0))
        with pytest.raises(OutOfRangeError):
            delta_bounds(F(1, 4), 8, a=F(1))

    def test_random_instances_within_bounds(self, rng):
        eps = F(1, 10**6)
        for _ in range(200):
            d = distribution_with_p1_below_half(rng, rng.randint(3, 40))
            delta = delta_occasion(d).delta
            a = d.p1 - eps
            b = d.p1 + eps
            upper, lower = delta_bounds(
                d.p1,
                d.n,
                a=a if 0 < a < F(1, 2) else None,
                b=b if b < F(1, 2) else None,
            )
            if upper is not None:
                assert delta < upper
            if lower is not None:
                assert delta > lower
