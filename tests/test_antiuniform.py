"""Suffix-sum domination, the alpha criteria, and skewed-code checks."""

from fractions import Fraction as F

import pytest

from prefixcode import (
    AlphaSequence,
    AntiUniformVerdict,
    Geometric,
    alpha_criterion,
    alpha_pairwise_criterion,
    anti_uniform_lengths,
    check_finite,
    check_infinite_tail,
    huffman_lengths,
    kraft_sum,
    optimal_lengths,
    truncate,
    validate,
    verify_truncation_anti_uniform,
)
from prefixcode.errors import (
    AlphaOutOfRangeError,
    NotNormalizedError,
    NotSortedError,
    OutOfRangeError,
)
from randgen import random_alpha_vector, random_distribution, random_source, tie_heavy_distribution
from test_sources import reference_prefix


def reference_check_finite(dist):
    """The suffix-sum test on Fractions, as first written: a suffix array,
    then p_{i+2} + ... + p_n against p_i for each i."""
    probs = dist.probs
    n = len(probs)
    suffix = [F(0)] * (n + 1)
    for j in range(n - 1, -1, -1):
        suffix[j] = suffix[j + 1] + probs[j]
    for i in range(1, n - 2):
        tail = suffix[i + 1]
        if tail > probs[i - 1]:
            return AntiUniformVerdict(False, i, (tail, probs[i - 1]))
    return AntiUniformVerdict(True)


def check_finite_instances(rng):
    for _ in range(60):
        yield random_distribution(rng, rng.randint(2, 40))
    for _ in range(60):
        yield tie_heavy_distribution(rng, rng.randint(2, 40))
    for _ in range(30):
        vec = random_alpha_vector(rng, rng.randint(1, 5), lo_milli=300)
        yield truncate(AlphaSequence(vec.alphas), rng.randint(2, 40))
    for spec in (Geometric(F(1, 2)), Geometric(F(1, 4)), AlphaSequence((F(2, 5),))):
        for n in (2, 3, 4, 5, 17, 64):
            yield truncate(spec, n)


class TestCheckFinite:
    def test_matches_the_fraction_reference(self, rng):
        verdicts = set()
        for d in check_finite_instances(rng):
            verdict = check_finite(d)
            assert verdict == reference_check_finite(d)
            verdicts.add(verdict.holds)
        assert verdicts == {True, False}

    def test_dyadic_holds(self):
        d = validate([F(1, 2), F(1, 4), F(1, 8), F(1, 16), F(1, 16)])
        assert check_finite(d).holds

    def test_uniform_violates_at_one(self):
        verdict = check_finite(validate([F(1, 5)] * 5))
        assert not verdict.holds
        assert verdict.first_violation == 1
        assert verdict.witness == (F(3, 5), F(1, 5))

    def test_skewed_example_holds_with_skewed_lengths(self):
        d = validate([F(2, 5), F(3, 10), F(3, 20), F(1, 10), F(1, 20)])
        assert check_finite(d).holds
        assert tuple(huffman_lengths(d)) == (1, 2, 3, 4, 4)

    def test_small_n_vacuous(self):
        assert check_finite(validate([F(1, 3)] * 3)).holds
        assert check_finite(validate([F(1, 2), F(1, 2)])).holds


def reference_check_infinite_tail(spec, depth):
    """The infinite-tail test as first written: the ``Fraction`` prefix
    against the closed-form tail mass after each index."""
    probs = reference_prefix(spec, depth)
    for i in range(1, depth + 1):
        tail = spec.tail_after(i + 1)
        if tail > probs[i - 1]:
            return AntiUniformVerdict(False, i, (tail, probs[i - 1]))
    return AntiUniformVerdict(True)


class _ClaimsFullMass(Geometric):
    """Claims S_n = 1 for every n >= 2, disagreeing with its own prefix."""

    def head_sum(self, n):
        return super().head_sum(n) if n < 2 else F(1)


class TestCheckInfiniteTail:
    def test_matches_the_fraction_reference(self, rng):
        specs = [random_source(rng) for _ in range(120)]
        specs += [AlphaSequence(random_alpha_vector(rng, rng.randint(1, 5)).alphas)
                  for _ in range(40)]
        violations = set()
        for spec in specs:
            depth = rng.randint(1, 200)
            verdict = check_infinite_tail(spec, depth)
            assert verdict == reference_check_infinite_tail(spec, depth), spec.literal()
            violations.add(verdict.first_violation)
        assert None in violations and 1 in violations and max(violations - {None}) > 1

    def test_head_sum_is_checked_at_the_reported_index(self):
        # holding: checked at depth + 1; violated at i = 1: checked at 2
        for ratio in (F(1, 2), F(1, 5)):
            with pytest.raises(NotNormalizedError):
                check_infinite_tail(_ClaimsFullMass(ratio), 10)

    def test_geometric_half_holds(self):
        assert check_infinite_tail(Geometric(F(1, 2)), 50).holds

    def test_geometric_fifth_violates_immediately(self):
        verdict = check_infinite_tail(Geometric(F(1, 5)), 10)
        assert not verdict.holds
        assert verdict.first_violation == 1
        assert verdict.witness == (F(16, 25), F(1, 5))

    def test_constant_two_fifths_holds(self):
        assert check_infinite_tail(AlphaSequence((F(2, 5),)), 50).holds

    def test_depth_validation(self):
        with pytest.raises(OutOfRangeError):
            check_infinite_tail(Geometric(F(1, 2)), 0)
        with pytest.raises(OutOfRangeError):
            check_infinite_tail(Geometric(F(1, 2)), 4097)


class TestAlphaCriteria:
    def test_half_passes(self):
        assert alpha_criterion([F(1, 2)])

    def test_two_fifths_passes(self):
        assert alpha_criterion([F(2, 5)])
        assert (F(3, 5)) ** 2 <= F(2, 5)  # the pairwise inequality behind it

    def test_third_fails(self):
        assert not alpha_criterion([F(1, 3)])
        assert (F(2, 3)) ** 2 > F(1, 3)

    def test_range_validation(self):
        with pytest.raises(AlphaOutOfRangeError):
            alpha_criterion([F(1, 2), F(1)])

    def test_threshold_and_pairwise_agree_on_constants(self):
        # (1-x)**2 <= x exactly when x**2 - 3x + 1 <= 0; probe the root
        # 0.38196601... from both sides at 6 and 8 decimal digits
        for num, den, expected in [
            (381966, 10**6, False),
            (381967, 10**6, True),
            (38196601, 10**8, False),
            (38196602, 10**8, True),
            (1, 2, True),
            (1, 3, False),
        ]:
            x = F(num, den)
            assert alpha_criterion([x]) is expected
            assert alpha_pairwise_criterion([x]) is expected
            assert ((1 - x) ** 2 <= x) is expected

    def test_threshold_implies_pairwise(self, rng):
        for _ in range(50):
            vec = random_alpha_vector(rng, rng.randint(1, 8))
            assert alpha_criterion(vec)
            assert alpha_pairwise_criterion(vec)

    def test_pairwise_is_strictly_weaker(self):
        # a small leading ratio can pass the pairwise test while failing
        # the per-element threshold
        vec = (F(3, 10), F(9, 10))
        assert alpha_pairwise_criterion(vec)
        assert not alpha_criterion(vec)


class TestAntiUniformLengths:
    def test_examples(self):
        assert tuple(anti_uniform_lengths(2)) == (1, 1)
        assert tuple(anti_uniform_lengths(5)) == (1, 2, 3, 4, 4)

    def test_kraft_tight_for_all_n(self):
        for n in range(2, 40):
            assert kraft_sum(anti_uniform_lengths(n)) == 1

    def test_n_validation(self):
        with pytest.raises(OutOfRangeError):
            anti_uniform_lengths(1)


class TestVerifyTruncation:
    def test_constant_two_fifths(self):
        assert verify_truncation_anti_uniform([F(2, 5)], 10)

    def test_constant_half(self):
        assert verify_truncation_anti_uniform([F(1, 2)], 20)

    def test_alternating_pair(self):
        alphas = (F(1, 2), F(2, 5)) * 6
        assert verify_truncation_anti_uniform(alphas, 12)

    def test_ratios_inducing_unsorted_source_propagate(self):
        # (2/5, 9/10) passes both alpha criteria but the induced second
        # probability exceeds the first, so no source can be built from it
        alphas = (F(2, 5), F(9, 10))
        assert alpha_criterion(alphas)
        with pytest.raises(NotSortedError):
            verify_truncation_anti_uniform(alphas, 6)

    def test_criterion_battery(self, rng):
        for _ in range(10):
            vec = random_alpha_vector(rng, rng.randint(1, 6))
            for n in range(4, 31):
                assert verify_truncation_anti_uniform(vec, n)

    def test_preconditions(self):
        with pytest.raises(OutOfRangeError):
            verify_truncation_anti_uniform([F(1, 2)], 3)
        with pytest.raises(OutOfRangeError):
            verify_truncation_anti_uniform([F(1, 3)], 8)


class TestExistentialAgainstOracle:
    def test_uniform_five_has_no_skewed_optimum(self):
        result = optimal_lengths(validate([F(1, 5)] * 5))
        assert not result.contains(anti_uniform_lengths(5))
        assert result.vectors == (tuple_vector((2, 2, 2, 3, 3)),)

    def test_suffix_condition_iff_skewed_optimal(self, rng):
        # small version of the acceptance battery
        for _ in range(150):
            n = rng.randint(2, 9)
            if rng.random() < 0.5:
                d = random_distribution(rng, n)
            else:
                vec = random_alpha_vector(rng, rng.randint(1, 4), lo_milli=300)
                d = truncate(AlphaSequence(vec.alphas), n)
            holds = check_finite(d).holds
            member = optimal_lengths(d).contains(anti_uniform_lengths(n))
            assert holds == member


def tuple_vector(lengths):
    from prefixcode import LengthVector

    return LengthVector(tuple(lengths))
