"""The deterministic merge rule, traces, lengths, and code accounting."""

import dataclasses
import json
from fractions import Fraction as F

import pytest

from prefixcode import (
    AlphaSequence,
    Geometric,
    LengthVector,
    MergeState,
    MergeTrace,
    canonical_codebook,
    counterexample,
    expected_length,
    huffman,
    huffman_lengths,
    kraft_sum,
    truncate,
    validate,
)
from prefixcode.distributions import check_weights
from prefixcode.errors import (
    KraftViolationError,
    NonPositiveEntryError,
    NotNormalizedError,
    NotSortedError,
    PrefixCodeError,
    SizeMismatchError,
    TooFewEntriesError,
)
from randgen import near_uniform_distribution, random_distribution, tie_heavy_distribution
from test_kernel import merge_step


class TestMergeStep:
    def test_insert_between(self):
        state, k = merge_step(MergeState(0, (4, 3, 2, 1), 10))
        assert state.probs == (F(2, 5), F(3, 10), F(3, 10))
        assert (state.m, k) == (1, 2)

    def test_tie_with_maximum_goes_first(self):
        state, k = merge_step(MergeState(0, (2, 1, 1), 4))
        assert state.probs == (F(1, 2), F(1, 2))
        assert k == 1

    def test_uniform_thirds(self):
        state, k = merge_step(MergeState(0, (1, 1, 1), 3))
        assert state.probs == (F(2, 3), F(1, 3))
        assert k == 1

    def test_too_few(self):
        with pytest.raises(TooFewEntriesError):
            merge_step(MergeState(2, (1,), 1))


class TestMergeState:
    def test_validation(self):
        with pytest.raises(TooFewEntriesError):
            MergeState(0, (), 1)
        with pytest.raises(NonPositiveEntryError):
            MergeState(0, (1, 0), 1)
        with pytest.raises(NotSortedError):
            MergeState(0, (1, 3), 4)
        with pytest.raises(NotNormalizedError):
            MergeState(0, (2, 1), 4)

    def test_huge_denominator_renders_in_the_message(self):
        with pytest.raises(NotSortedError, match="1" + "0" * 5000):
            MergeState(0, (1, 5 * 10**4999), 10**5000)

    def test_stored_in_lowest_terms(self):
        state = MergeState(3, (4, 2, 2), 8)
        assert (state.m, state.nums, state.den) == (3, (2, 1, 1), 4)
        assert state == MergeState(3, (2, 1, 1), 4)
        assert state.probs == (F(1, 2), F(1, 4), F(1, 4)) and len(state) == 3


class TestHuffman:
    def test_dyadic_lengths(self):
        d = validate([F(1, 2), F(1, 4), F(1, 8), F(1, 8)])
        lengths, _ = huffman(d)
        assert tuple(lengths) == (1, 2, 3, 3)

    def test_counterexample_top_lengths(self):
        assert huffman_lengths(counterexample(2, F(1, 36)))[0] == 3
        assert huffman_lengths(counterexample(3, F(0)))[0] == 3
        assert huffman_lengths(counterexample(1, F(1, 12)))[0] == 1

    def test_lengths_fast_path_agrees(self, rng):
        for _ in range(30):
            d = random_distribution(rng, rng.randint(2, 25))
            lengths, _ = huffman(d)
            assert lengths == huffman_lengths(d)

    def test_deterministic(self, rng):
        d = random_distribution(rng, 12)
        assert huffman(d) == huffman(d)

    def test_trace_structure(self):
        d = validate([F(2, 5), F(3, 10), F(1, 5), F(1, 10)])
        lengths, trace = huffman(d)
        assert len(trace.states) == d.n
        assert trace.states[0].probs == d.probs
        assert trace.states[-1].probs == (F(1),)
        # every state is reproduced by replaying merge_step
        for m in range(1, d.n):
            expected, k = merge_step(trace.states[m - 1])
            assert expected == trace.states[m]
            assert trace.insertions[m - 1] == (
                m,
                k,
                expected.probs[k - 1],
            )

    def test_trace_json_lines(self):
        d = validate([F(1, 3), F(1, 3), F(1, 3)])
        _, trace = huffman(d)
        records = [json.loads(line) for line in trace.json_lines()]
        assert records[0] == {"m": 1, "k": 1, "merged": "2/3", "state": ["2/3", "1/3"]}
        assert records[1]["state"] == ["1"]

    def test_kraft_equality_always(self, rng):
        for _ in range(40):
            d = random_distribution(rng, rng.randint(2, 30))
            assert kraft_sum(huffman_lengths(d)) == 1

    def test_sibling_property(self, rng):
        # coding the reduced source and re-expanding preserves the optimum
        for _ in range(30):
            d = random_distribution(rng, rng.randint(3, 15))
            merged = d.probs[-1] + d.probs[-2]
            reduced = validate(sorted(d.probs[:-2] + (merged,), reverse=True))
            e_full = expected_length(d, huffman_lengths(d))
            e_reduced = expected_length(reduced, huffman_lengths(reduced))
            assert e_full == e_reduced + merged

    def test_near_uniform_top_length_is_floor_log2(self, rng):
        for _ in range(40):
            n = rng.randint(2, 100)
            d = near_uniform_distribution(rng, n)
            assert d.probs[-1] + d.probs[-2] >= d.p1
            assert huffman_lengths(d)[0] == n.bit_length() - 1

    def test_power_of_two_near_uniform_is_perfect(self, rng):
        # pairwise sums dominate the maximum, so the tree is perfect
        for t in (1, 2, 3, 4, 5):
            d = near_uniform_distribution(rng, 2**t)
            assert tuple(huffman_lengths(d)) == (t,) * 2**t


class TestAccounting:
    def test_expected_length_examples(self):
        assert expected_length(validate([F(1, 3)] * 3), (1, 2, 2)) == F(5, 3)
        d = validate([F(1, 2), F(1, 4), F(1, 8), F(1, 8)])
        assert expected_length(d, (1, 2, 3, 3)) == F(7, 4)
        ce = counterexample(2, F(0))
        assert expected_length(ce, (3,) * 8) == 3
        assert expected_length(ce, (2, 3, 3, 3, 3, 3, 4, 4)) == 3

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            expected_length(validate([F(1, 2), F(1, 2)]), (1, 1, 1))

    def test_kraft_sum_examples(self):
        assert kraft_sum((1, 2, 2)) == 1
        assert kraft_sum((1, 1, 1)) == F(3, 2)
        assert kraft_sum((1, 2, 3, 4, 4)) == 1


class TestCanonicalCodebook:
    @pytest.mark.parametrize(
        "lengths,expected",
        [
            ((1, 2, 2), ("0", "10", "11")),
            ((2, 2, 2, 2), ("00", "01", "10", "11")),
            ((1, 2, 3, 3), ("0", "10", "110", "111")),
        ],
    )
    def test_examples(self, lengths, expected):
        assert tuple(canonical_codebook(lengths)) == expected

    def test_kraft_violation(self):
        with pytest.raises(KraftViolationError):
            canonical_codebook((1, 1, 2))

    def test_prefix_free_with_matching_lengths(self, rng):
        for _ in range(30):
            d = random_distribution(rng, rng.randint(2, 20))
            lengths = huffman_lengths(d)
            words = list(canonical_codebook(lengths))
            assert [len(w) for w in words] == list(lengths)
            for i, w in enumerate(words):
                for j, v in enumerate(words):
                    if i != j:
                        assert not v.startswith(w)


class TestLengthVector:
    def test_must_be_non_decreasing(self):
        with pytest.raises(NotSortedError):
            LengthVector((2, 1))

    def test_must_be_positive(self):
        with pytest.raises(Exception):
            LengthVector((0, 1))

    def test_huffman_output_is_non_decreasing(self, rng):
        for _ in range(20):
            d = random_distribution(rng, rng.randint(2, 30))
            lv = huffman_lengths(d)
            assert all(a <= b for a, b in zip(lv, list(lv)[1:]))


def reference_trace_lines(d):
    """The trace as it was first written: every state from the ``Fraction``
    loop ``merge_step``, checked as a ``MergeState``, each record through
    ``json.dumps``."""
    state = MergeState(0, d.nums, d.den)
    lines = []
    for m in range(1, d.n):
        state, k = merge_step(state)
        record = {
            "m": m,
            "k": k,
            "merged": str(state.probs[k - 1]),
            "state": [str(p) for p in state.probs],
        }
        lines.append(json.dumps(record))
    return lines


def trace_instances(rng):
    for _ in range(40):
        yield random_distribution(rng, rng.randint(2, 64))
    for _ in range(40):
        yield tie_heavy_distribution(rng, rng.randint(2, 64))
    for family, epsilons in ((1, (0, F(1, 12))), (2, (0, F(1, 36))), (3, (0, F(1, 24)))):
        for eps in epsilons:
            yield counterexample(family, F(eps))
    for n in (2, 3, 17, 64, 100):
        yield truncate(Geometric(F(1, 4)), n)


def reference_checked_lines(trace):
    """The trace writer with the full :func:`check_weights` on every replayed
    state, for any record, corrupted ones included."""
    den = trace.den
    vals = list(trace.nums)
    check_weights(vals, den)
    for m, (k, s) in enumerate(zip(trace.ks, trace.sums), start=1):
        del vals[-2:]
        if not 1 <= k <= len(vals) + 1:
            raise NotSortedError(f"insertion index {k} outside [1, {len(vals) + 1}]")
        vals.insert(k - 1, s)
        check_weights(vals, den)
        yield json.dumps({"m": m, "k": k, "merged": str(F(s, den)),
                          "state": [str(F(v, den)) for v in vals]})


def written_until_error(lines):
    """The lines a writer yields, and the type and message of the error
    that stops it (None when it finishes)."""
    written = []
    try:
        for line in lines:
            written.append(line)
    except PrefixCodeError as exc:
        return written, type(exc), str(exc)
    return written, None, None


class TestTraceRecord:
    def test_json_lines_match_the_reference(self, rng):
        for d in trace_instances(rng):
            _, trace = huffman(d)
            expected = reference_trace_lines(d)
            assert trace.json_lines() == expected
            assert list(trace.iter_json_lines()) == expected

    def test_json_size_is_the_length_written(self, rng):
        for d in trace_instances(rng):
            _, trace = huffman(d)
            assert trace.json_size() == sum(len(line) + 1 for line in trace.iter_json_lines())

    def test_json_size_floor_is_below_the_size(self, rng):
        # equal only for n = 2, whose one line holds nothing but the weight 1
        for d in trace_instances(rng):
            _, trace = huffman(d)
            floor, size = trace.json_size_floor(), trace.json_size()
            assert floor < size if d.n > 2 else floor == size

    def test_json_size_ceiling_is_above_the_size(self, rng):
        instances = [*trace_instances(rng),
                     *(near_uniform_distribution(rng, rng.randint(2, 64)) for _ in range(20)),
                     *(truncate(spec, n)
                       for spec in (Geometric(F(1, 4)), Geometric(F(3, 100)),
                                    AlphaSequence((F(2, 5),)),
                                    AlphaSequence((F(3, 7), F(2, 5), F(9, 20))))
                       for n in (2, 3, 50, 200))]
        for d in instances:
            _, trace = huffman(d)
            assert trace.json_size_ceiling() >= trace.json_size()

    def test_states_and_insertions_match_merge_step(self, rng):
        for d in trace_instances(rng):
            _, trace = huffman(d)
            states = trace.states
            assert states[0] == MergeState(0, d.nums, d.den)
            for m in range(1, d.n):
                expected, k = merge_step(states[m - 1])
                assert states[m] == expected
                assert trace.insertions[m - 1] == (m, k, expected.probs[k - 1])

    def test_record_is_integer(self):
        d = validate([F(2, 5), F(3, 10), F(1, 5), F(1, 10)])
        _, trace = huffman(d)
        assert (trace.nums, trace.den, trace.ks, trace.sums) == (
            (4, 3, 2, 1), 10, (2, 1, 1), (3, 6, 10))

    @pytest.mark.parametrize("field, value, error", [
        ("ks", (1, 1, 1), NotSortedError),        # 3 lands before a larger 4
        ("ks", (0, 1, 1), NotSortedError),        # index outside the state
        ("ks", (5, 1, 1), NotSortedError),
        ("sums", (4, 6, 10), NotNormalizedError),  # 4 is not 2 + 1
        ("sums", (3, 7, 10), NotNormalizedError),  # 7 is not 3 + 3
        ("ks", (2, 2, 1), NotSortedError),        # 6 lands after a smaller 4
        ("ks", (2, 3, 1), NotSortedError),        # index outside the second state
        ("sums", (3, 6, 11), NotNormalizedError),
        ("sums", (0, 6, 10), NonPositiveEntryError),
        ("sums", (-3, 6, 10), NonPositiveEntryError),
    ])
    def test_corrupted_record_is_rejected(self, field, value, error):
        # the writer stops after the same lines, with the same error and
        # message, as the full check of every state
        d = validate([F(2, 5), F(3, 10), F(1, 5), F(1, 10)])
        _, trace = huffman(d)
        bad = dataclasses.replace(trace, **{field: value})
        got = written_until_error(bad.iter_json_lines())
        assert got == written_until_error(reference_checked_lines(bad))
        assert got[1] is error
        with pytest.raises(error):
            bad.states

    def test_corrupted_records_fail_as_the_per_state_check_does(self, rng):
        # one merge's index or merged weight changed at random: the O(1)
        # test per merge must write the same lines and raise the same error,
        # with the same message, as the full check of every state
        for d in trace_instances(rng):
            _, trace = huffman(d)
            for _ in range(6):
                m = rng.randrange(d.n - 1)
                if rng.random() < 0.5:
                    ks = list(trace.ks)
                    ks[m] = rng.randint(0, d.n - m)
                    bad = dataclasses.replace(trace, ks=tuple(ks))
                else:
                    sums = list(trace.sums)
                    sums[m] = rng.choice((0, -sums[m], sums[m] + rng.choice((-1, 1)),
                                          rng.choice(trace.nums), rng.choice(trace.sums)))
                    bad = dataclasses.replace(trace, sums=tuple(sums))
                got = written_until_error(bad.iter_json_lines())
                assert got == written_until_error(reference_checked_lines(bad))

    def test_corrupted_input_weights_are_rejected(self):
        with pytest.raises(NotSortedError):
            MergeTrace((1, 2), 3, (1,), (3,)).json_lines()
        with pytest.raises(NonPositiveEntryError):
            MergeTrace((3, 0), 3, (1,), (3,)).json_lines()
        with pytest.raises(NotNormalizedError):
            MergeTrace((2, 1), 4, (1,), (3,)).json_lines()

    def test_record_lengths_must_agree(self):
        with pytest.raises(SizeMismatchError):
            MergeTrace((2, 1), 3, (1, 1), (3,))
