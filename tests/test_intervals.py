"""Interval classification of the top codeword length and coverage bounds."""

from fractions import Fraction as F

import pytest

from prefixcode import (
    AlphaSequence,
    Geometric,
    L1Classification,
    L1Interval,
    classify_l1,
    classify_l1_infinite,
    coverage_sum,
    huffman_lengths,
    interval_for,
)
from prefixcode.errors import OutOfRangeError
from randgen import interval_instance


class TestIntervals:
    def test_endpoints(self):
        assert (interval_for(1).lower, interval_for(1).upper) == (F(2, 5), F(1))
        assert (interval_for(2).lower, interval_for(2).upper) == (F(2, 9), F(1, 3))
        assert (interval_for(3).lower, interval_for(3).upper) == (F(2, 17), F(1, 7))

    def test_consecutive_intervals_leave_gaps(self):
        for k in range(1, 21):
            assert interval_for(k).lower < interval_for(k).upper
            assert interval_for(k + 1).upper < interval_for(k).lower

    def test_k_validation(self):
        with pytest.raises(OutOfRangeError):
            interval_for(0)

    def test_contains_is_the_classification(self, rng):
        for k in range(1, 13):
            interval = L1Interval(k)
            lower, upper = interval.lower, interval.upper
            # points from below the interval to past it, its open endpoints,
            # and points a hair either side of them
            points = [lower + (upper - lower) * F(rng.randint(-2**20, 2**21), 2**20)
                      for _ in range(60)]
            points += [lower, upper]
            points += [end + F(sign, rng.randint(2**60, 2**80))
                       for end in (lower, upper) for sign in (-1, 1)]
            seen = set()
            for p in points:
                if 0 < p < 1:
                    inside = interval.contains(p)
                    assert inside == (classify_l1(p).k == k)
                    seen.add(inside)
            assert seen == {False, True}
            assert not interval.contains(lower) and not interval.contains(upper)


class TestClassify:
    def test_inside_first_interval(self):
        cls = classify_l1(F(9, 20))
        assert cls.k == 1 and not cls.half_rule

    def test_inside_second_interval(self):
        assert classify_l1(F(1, 4)).k == 2

    def test_boundary_is_undetermined(self):
        cls = classify_l1(F(1, 3))
        assert cls.k is None and cls.gap == (1, 2)
        assert classify_l1(F(2, 5)).gap == (1, 2)

    def test_gap_value_undetermined(self):
        cls = classify_l1(F(1, 5))
        assert cls.k is None and cls.gap == (2, 3)

    def test_half_rule(self):
        cls = classify_l1(F(1, 2))
        assert cls.k == 1 and cls.half_rule

    def test_range_validation(self):
        for bad in (F(0), F(1), F(3, 2)):
            with pytest.raises(OutOfRangeError):
                classify_l1(bad)

    def test_soundness_small_battery(self, rng):
        for k in range(1, 5):
            for _ in range(50):
                d = interval_instance(rng, k, n_max=64)
                assert huffman_lengths(d)[0] == k

    def test_matches_linear_scan(self, rng):
        def scan(p1):
            # the original search: step k up from 1 until lower(k) < p1
            if p1 >= F(1, 2):
                return L1Classification(k=1, half_rule=True)
            k = 1
            while L1Interval(k).lower >= p1:
                k += 1
            if p1 < L1Interval(k).upper:
                return L1Classification(k=k)
            return L1Classification(k=None, gap=(k - 1, k))

        values = set()
        for k in range(1, 80):
            iv = L1Interval(k)
            nudge = F(1, 2 ** (2 * k + 8))
            for end in (iv.lower, iv.upper):
                values.update((end - nudge, end, end + nudge))
            values.add((iv.lower + iv.upper) / 2)
            gap_low = L1Interval(k + 1).upper
            values.update((gap_low, (gap_low + iv.lower) / 2))
            values.update((F(1, 2**k), F(1, 3 * 2**k), F(1, 2**k - 1)))
        for _ in range(2000):
            scale = 2 ** rng.randint(1, 300)
            values.add(F(rng.randint(1, scale), scale * rng.randint(1, 64)))
        values = [p for p in values if 0 < p < 1]
        assert len(values) > 2000
        for p1 in values:
            assert classify_l1(p1) == scan(p1), p1

    def test_gap_families_break_determinism(self):
        # p1 values flanking the k=2 interval produce lengths 1 and 3, not 2
        from prefixcode import counterexample

        assert huffman_lengths(counterexample(1, F(0)))[0] == 1
        assert huffman_lengths(counterexample(2, F(1, 36)))[0] == 3
        assert huffman_lengths(counterexample(3, F(0)))[0] == 3


class TestClassifyInfinite:
    def test_geometric_half_flagged(self):
        cls = classify_l1_infinite(Geometric(F(1, 2)))
        assert cls.k == 1 and cls.half_rule

    def test_geometric_quarter(self):
        assert classify_l1_infinite(Geometric(F(1, 4))).k == 2

    def test_alpha_boundary_undetermined(self):
        cls = classify_l1_infinite(AlphaSequence((F(2, 5),)))
        assert cls.k is None and cls.gap == (1, 2)


class TestCoverage:
    def test_first_terms(self):
        assert coverage_sum(1).partial == F(3, 5)
        assert coverage_sum(2).partial == F(32, 45)

    def test_bounds_structure(self):
        b = coverage_sum(6)
        assert b.lower == b.partial
        assert b.upper == b.partial + F(1, 2**5)

    def test_deeper_partials_stay_inside_bounds(self):
        for terms in range(1, 12):
            b = coverage_sum(terms)
            refined = coverage_sum(terms + 8).partial
            assert b.lower < refined < b.upper

    def test_terms_validation(self):
        with pytest.raises(OutOfRangeError):
            coverage_sum(0)
        with pytest.raises(OutOfRangeError):
            coverage_sum(513)
