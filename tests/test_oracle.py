"""Brute-force enumeration of complete codes and optimality certification."""

from fractions import Fraction as F
from itertools import combinations_with_replacement

import pytest

from prefixcode import (
    counterexample,
    count_kraft_tight,
    enumerate_kraft_tight,
    expected_length,
    huffman_lengths,
    kraft_sum,
    optimal_lengths,
    validate,
)
from prefixcode.errors import OutOfRangeError, UniverseTooLargeError
from randgen import random_distribution


def brute_force_profiles(n, max_len):
    """Independent enumeration: filter all non-decreasing candidates."""
    out = []
    for tup in combinations_with_replacement(range(1, max_len + 1), n):
        if sum(F(1, 2**l) for l in tup) == 1:
            out.append(tup)
    return out


class TestEnumeration:
    def test_smallest_universes(self):
        assert [tuple(v) for v in enumerate_kraft_tight(2)] == [(1, 1)]
        assert [tuple(v) for v in enumerate_kraft_tight(3)] == [(1, 2, 2)]
        assert sorted(tuple(v) for v in enumerate_kraft_tight(4)) == [
            (1, 2, 3, 3),
            (2, 2, 2, 2),
        ]

    def test_counts_match_independent_filter(self):
        for n in range(2, 9):
            expect = brute_force_profiles(n, n - 1)
            got = sorted(tuple(v) for v in enumerate_kraft_tight(n))
            assert got == sorted(expect)
            assert count_kraft_tight(n) == len(expect)

    def test_entries_are_kraft_tight_and_sorted(self):
        for n in (5, 8, 10):
            seen = set()
            for vec in enumerate_kraft_tight(n):
                tup = tuple(vec)
                assert tup not in seen
                seen.add(tup)
                assert kraft_sum(vec) == 1
                assert all(a <= b for a, b in zip(tup, tup[1:]))
                assert tup[-1] <= n - 1

    def test_max_len_restricts(self):
        assert [tuple(v) for v in enumerate_kraft_tight(4, max_len=2)] == [(2, 2, 2, 2)]

    def test_max_len_beyond_n_minus_one_changes_nothing(self):
        for n in (4, 9):
            assert count_kraft_tight(n, max_len=3000) == count_kraft_tight(n)

    def test_validation(self):
        with pytest.raises(UniverseTooLargeError):
            list(enumerate_kraft_tight(15))
        with pytest.raises(OutOfRangeError):
            list(enumerate_kraft_tight(1))
        with pytest.raises(OutOfRangeError):
            list(enumerate_kraft_tight(8, max_len=2))


class TestOptimalLengths:
    def test_uniform_four(self):
        result = optimal_lengths(validate([F(1, 4)] * 4))
        assert result.optimum == 2
        assert [tuple(v) for v in result.vectors] == [(2, 2, 2, 2)]

    def test_dyadic_unique(self):
        result = optimal_lengths(validate([F(1, 2), F(1, 4), F(1, 8), F(1, 8)]))
        assert result.optimum == F(7, 4)
        assert [tuple(v) for v in result.vectors] == [(1, 2, 3, 3)]

    def test_unperturbed_family2_ties(self):
        # the unperturbed family-2 distribution admits two optimal shapes,
        # one of them with a two-bit top codeword
        result = optimal_lengths(counterexample(2, F(0)))
        assert result.optimum == 3
        tuples = {tuple(v) for v in result.vectors}
        assert (3, 3, 3, 3, 3, 3, 3, 3) in tuples
        assert (2, 3, 3, 3, 3, 3, 4, 4) in tuples

    def test_universe_cap(self):
        with pytest.raises(UniverseTooLargeError):
            optimal_lengths(validate([F(1, 15)] * 15))

    def test_huffman_always_optimal(self, rng):
        for _ in range(200):
            d = random_distribution(rng, rng.randint(2, 10))
            lengths = huffman_lengths(d)
            result = optimal_lengths(d)
            assert expected_length(d, lengths) == result.optimum
            assert result.contains(lengths)
