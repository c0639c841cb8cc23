"""Construction and validation of exact finite distributions."""

import importlib
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from prefixcode import (
    AlphaSequence,
    FiniteDistribution,
    Geometric,
    MergeState,
    check_finite,
    counterexample,
    delta_occasion,
    distributions,
    huffman,
    truncate,
    validate,
)
from prefixcode.numutil import common_numerators
from prefixcode.errors import (
    EpsilonOutOfRangeError,
    NonPositiveEntryError,
    NotNormalizedError,
    NotSortedError,
    TooFewEntriesError,
)
from test_kernel import trace_states


def test_valid_dyadic():
    d = validate([F(1, 2), F(1, 4), F(1, 4)])
    assert d.probs == (F(1, 2), F(1, 4), F(1, 4))
    assert d.n == 3 and d.p1 == F(1, 2)
    assert list(d) == [F(1, 2), F(1, 4), F(1, 4)]


def test_not_sorted():
    with pytest.raises(NotSortedError):
        validate([F(1, 4), F(1, 2), F(1, 4)])


def test_not_normalized_reports_deficit():
    with pytest.raises(NotNormalizedError) as exc:
        validate([F(1, 2), F(1, 4), F(1, 8)])
    assert exc.value.deficit == F(1, 8)
    assert exc.value.total == F(7, 8)


def test_rejects_zero_and_negative_entries():
    with pytest.raises(NonPositiveEntryError):
        validate([F(1, 2), F(1, 2), F(0)])
    with pytest.raises(NonPositiveEntryError):
        validate([F(3, 2), F(-1, 4), F(-1, 4)])


def test_rejects_single_symbol():
    with pytest.raises(TooFewEntriesError):
        validate([F(1)])


def test_floats_convert_by_decimal_expansion():
    d = validate([0.4, 0.4, 0.2])
    assert d.probs == (F(2, 5), F(2, 5), F(1, 5))


def test_common_numerators_reconstruct():
    d = validate([F(2, 5), F(3, 10), F(1, 5), F(1, 10)])
    nums, den = d.common_numerators()
    assert nums == [4, 3, 2, 1] and den == 10
    assert [F(a, den) for a in nums] == list(d.probs)


def test_common_numerators_computed_once_and_never_shared(monkeypatch):
    calls = []
    original = distributions.common_numerators

    def counting(values):
        calls.append(len(values))
        return original(values)

    monkeypatch.setattr(distributions, "common_numerators", counting)
    d = validate([F(2, 5), F(3, 10), F(1, 5), F(1, 10)])
    nums, den = d.common_numerators()
    nums[0] = 99
    nums.append(7)
    assert d.common_numerators() == ([4, 3, 2, 1], 10)
    assert d.common_numerators()[0] is not d.common_numerators()[0]
    assert calls == [4]
    assert d == validate([F(2, 5), F(3, 10), F(1, 5), F(1, 10)])


@given(st.lists(st.integers(min_value=1, max_value=10**9), min_size=2, max_size=30))
def test_weight_normalization_always_validates(weights):
    total = sum(weights)
    d = validate(sorted((F(w, total) for w in weights), reverse=True))
    assert sum(d.probs) == 1
    assert all(a >= b for a, b in zip(d.probs, d.probs[1:]))


class TestCounterexamples:
    def test_family1_at_zero(self):
        assert counterexample(1, F(0)).probs == (F(1, 3), F(1, 3), F(1, 3))

    def test_family2_sample(self):
        d = counterexample(2, F(1, 36))
        assert d.probs == (F(7, 36), F(5, 36)) + (F(1, 9),) * 6

    def test_family3_at_zero(self):
        d = counterexample(3, F(0))
        assert d.probs == (F(1, 6),) + (F(1, 12),) * 10
        assert d.n == 11

    def test_epsilon_ranges(self):
        for family, bad in [(1, F(1, 6)), (2, F(1, 18)), (3, F(1, 24) + F(1, 1000))]:
            with pytest.raises(EpsilonOutOfRangeError):
                counterexample(family, bad)
            with pytest.raises(EpsilonOutOfRangeError):
                counterexample(family, F(-1, 100))
        # family 3 is closed at 1/24
        assert counterexample(3, F(1, 24)).p1 == F(1, 8)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            counterexample(4, F(0))

    def test_families_validate_across_epsilon(self, rng):
        ranges = {1: F(1, 6), 2: F(1, 18), 3: F(1, 24)}
        for family, top in ranges.items():
            for _ in range(25):
                eps = top * F(rng.randint(0, 999), 1000)
                d = counterexample(family, eps)
                assert sum(d.probs) == 1
                assert d.p1 == d.probs[0]


class TestIntegerRepresentation:
    def test_integer_constructor_stores_lowest_terms(self):
        d = FiniteDistribution((4, 2, 2), 8)
        assert (d.nums, d.den) == ((2, 1, 1), 4)
        assert d == validate([F(1, 2), F(1, 4), F(1, 4)])
        assert d.probs == (F(1, 2), F(1, 4), F(1, 4)) and d.p1 == F(1, 2)

    def test_integer_constructor_validates(self):
        with pytest.raises(TooFewEntriesError):
            FiniteDistribution((1,), 1)
        with pytest.raises(NonPositiveEntryError):
            FiniteDistribution((2, 0), 2)
        with pytest.raises(NotSortedError):
            FiniteDistribution((1, 2), 3)
        with pytest.raises(NotNormalizedError):
            FiniteDistribution((2, 1), 4)

    @pytest.mark.parametrize("spec", [Geometric(F(2, 5)), AlphaSequence((F(2, 5),))],
                             ids=["geom", "alpha"])
    def test_truncation_equals_its_validated_probabilities(self, spec):
        for n in (2, 3, 10, 64):
            nums, den = common_numerators(spec.prefix_probs(n))
            # the prefix over its own sum is not in lowest terms
            assert gcd(sum(nums), *nums) == 2
            d = truncate(spec, n)
            ref = validate(d.probs)
            assert d == ref and hash(d) == hash(ref)
            assert (d.nums, d.den) == (ref.nums, ref.den)
            assert gcd(d.den, *d.nums) == 1

    def test_truncation_analysis_builds_no_fraction_per_entry(self, monkeypatch):
        # truncate, delta_occasion, check_finite and the trace states work
        # on the weights: neither probs view is built, and a Fraction is
        # made per entry by none of them (check_finite makes its witness)
        def unbuilt(self):
            raise AssertionError("probs built")

        built = []

        def counting(*args):
            built.append(args)
            return F(*args)

        monkeypatch.setattr(FiniteDistribution, "probs", property(unbuilt))
        monkeypatch.setattr(MergeState, "probs", property(unbuilt))
        for name in ("sources", "distributions", "huffman", "delta", "antiuniform"):
            monkeypatch.setattr(importlib.import_module(f"prefixcode.{name}"), "Fraction", counting)
        for spec, holds in ((Geometric(F(1, 4)), False), (AlphaSequence((F(2, 5),)), True)):
            d = truncate(spec, 200)
            assert all(args == (1,) for args in built)  # the alpha residual's start
            built.clear()
            assert delta_occasion(d).state.m > 0
            assert check_finite(d).holds is holds
            assert len(built) == 2 * (not holds)  # the witness pair
            built.clear()
            assert len(trace_states(huffman(d)[1])) == 200
            assert built == []
