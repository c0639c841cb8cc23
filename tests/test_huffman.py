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
    kernel,
    kraft_sum,
    truncate,
    validate,
)
from prefixcode.errors import (
    KraftViolationError,
    NonPositiveEntryError,
    NotNormalizedError,
    NotSortedError,
    SizeMismatchError,
    TooFewEntriesError,
)
from randgen import near_uniform_distribution, random_distribution, tie_heavy_distribution
from test_kernel import merge_step, trace_states


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
        states = trace_states(trace)
        assert len(states) == d.n
        assert states[0].probs == d.probs
        assert states[-1].probs == (F(1),)
        # every state is reproduced by replaying merge_step
        for m in range(1, d.n):
            expected, k = merge_step(states[m - 1])
            assert expected == states[m]
            assert (trace.ks[m - 1], F(trace.sums[m - 1], trace.den)) == (
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
        with pytest.raises(TooFewEntriesError):
            LengthVector(())

    def test_a_non_integral_length_is_refused(self):
        # each entry is read as an index, as range() reads one: no float or
        # string is floored to an int
        for build, lengths in ((LengthVector, (1.5, 1.9)), (kraft_sum, [1.5, 1.9]),
                               (canonical_codebook, [1.7, 1.2]), (LengthVector, ("1", "2"))):
            with pytest.raises(TypeError):
                build(lengths)

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
    for n in (2, 3, 17, 64):
        yield truncate(AlphaSequence((F(3, 7), F(2, 5), F(9, 20))), n)


def line_kinds(trace):
    """For each line, whether its merged weight went in first (k = 1) with
    other entries after it, and whether every other entry of its state is a
    leaf with some after the merged one."""
    leaves = [True] * len(trace.nums)
    kinds = []
    for k in trace.ks:
        del leaves[-2:]
        leaves.insert(k - 1, False)
        kinds.append((k == 1 < len(leaves), leaves.count(False) == 1 and k < len(leaves)))
    return kinds


class TestTraceRecord:
    def test_json_lines_match_the_reference(self, rng):
        # tie-heavy small weights, truncations and the counterexample
        # families, with lines whose merged weight goes in first and lines
        # whose leading and trailing entries are all leaves
        first = leaves = 0
        for d in trace_instances(rng):
            _, trace = huffman(d)
            expected = reference_trace_lines(d)
            assert trace.json_lines() == expected
            assert list(trace.iter_json_lines()) == expected
            for k_first, only_leaves in line_kinds(trace):
                first += k_first
                leaves += only_leaves
        assert first and leaves

    def test_line_parts_replay_the_lines(self, rng):
        # each line's leading entries are the first k - 1 input weights, a
        # prefix of their one joined rendering
        for d in trace_instances(rng):
            _, trace = huffman(d)
            lead, parts = trace.line_parts()
            inputs = trace.input_strs()
            assert lead == "".join(text + '", "' for text in inputs)
            for k, (header, end, rest), line in zip(trace.ks, parts, trace.iter_json_lines()):
                assert lead[:end] == "".join(text + '", "' for text in inputs[:k - 1])
                assert line == header + lead[:end] + rest + '"]}'

    def test_json_size_is_the_length_written(self, rng):
        for d in trace_instances(rng):
            _, trace = huffman(d)
            assert trace.json_size() == sum(len(line) + 1 for line in trace.iter_json_lines())

    def test_json_size_floor_is_below_the_size(self, rng):
        # equal for n = 2, whose one line holds nothing but the weight 1, and
        # on small weights such as counterexample 2's ninths, whose digits
        # the bit lengths give exactly
        equal = 0
        for d in trace_instances(rng):
            _, trace = huffman(d)
            floor, size = trace.json_size_floor(), trace.json_size()
            assert floor <= size
            assert floor == size or d.n > 2
            equal += floor == size and d.n > 2
            # a limit below the bound from bit lengths alone returns that
            # bound, which is below the floor
            assert trace.json_size_floor(limit=0) <= floor
        assert equal

    def test_json_size_floor_counts_the_reduced_numerators(self):
        # within 4% of the size on truncations, whose input weights are in
        # lowest terms over the shared denominator; a bound from the
        # denominators alone is under half of it
        for spec in (Geometric(F(1, 4)), Geometric(F(3, 100)), AlphaSequence((F(2, 5),)),
                     AlphaSequence((F(3, 7), F(2, 5), F(9, 20)))):
            for n in (17, 64, 200):
                _, trace = huffman(truncate(spec, n))
                size = trace.json_size()
                assert 0.96 * size < trace.json_size_floor() <= size
                assert trace.json_size_floor(limit=0) < size / 2

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
            states = trace_states(trace)
            assert states[0] == MergeState(0, d.nums, d.den)
            for m in range(1, d.n):
                expected, k = merge_step(states[m - 1])
                assert states[m] == expected
                assert (trace.ks[m - 1], F(trace.sums[m - 1], trace.den)) == (
                    k, expected.probs[k - 1])

    def test_record_is_integer(self):
        d = validate([F(2, 5), F(3, 10), F(1, 5), F(1, 10)])
        _, trace = huffman(d)
        assert (trace.nums, trace.den, trace.ks, trace.sums) == (
            (4, 3, 2, 1), 10, (2, 1, 1), (3, 6, 10))

    def test_corrupted_input_weights_are_rejected(self):
        with pytest.raises(NotSortedError):
            MergeTrace((1, 2), 3)
        with pytest.raises(NonPositiveEntryError):
            MergeTrace((3, 0), 3)
        with pytest.raises(NotNormalizedError):
            MergeTrace((2, 1), 4)
        with pytest.raises(TooFewEntriesError):
            MergeTrace((), 1)
        with pytest.raises(TooFewEntriesError):
            MergeTrace((1,), 1)

    def test_record_is_the_kernels(self, rng):
        for d in trace_instances(rng):
            trace = MergeTrace(d.nums, d.den)
            assert trace == huffman(d)[1]
            lengths, ks, sums = kernel.run_merges(list(d.nums))
            assert (trace.ks, trace.sums, trace.lengths) == (
                tuple(ks), tuple(sums), tuple(lengths))

    @pytest.mark.parametrize("field", ["ks", "sums", "lengths"])
    def test_record_fields_cannot_be_replaced(self, field):
        _, trace = huffman(validate([F(2, 5), F(3, 10), F(1, 5), F(1, 10)]))
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(trace, **{field: getattr(trace, field)})

    def test_only_the_weights_are_set(self):
        _, trace = huffman(validate([F(2, 5), F(3, 10), F(1, 5), F(1, 10)]))
        with pytest.raises(TypeError):
            MergeTrace(trace.nums, trace.den, trace.ks, trace.sums)
        # replacing the weights codes them again
        other = dataclasses.replace(trace, nums=(1, 1, 1, 1), den=4)
        assert (other.ks, other.sums, other.lengths) == ((1, 1, 1), (2, 2, 4), (2, 2, 2, 2))
        with pytest.raises(NotSortedError):
            dataclasses.replace(trace, nums=(1, 2, 3, 4))

    def test_huffman_runs_the_kernel_once(self, rng, monkeypatch):
        calls = []
        run_merges = kernel.run_merges

        def counted(*args, **kwargs):
            calls.append(args)
            return run_merges(*args, **kwargs)

        monkeypatch.setattr(kernel, "run_merges", counted)
        for d in trace_instances(rng):
            calls.clear()
            lengths, trace = huffman(d)
            assert len(calls) == 1 and list(calls[0][0]) == list(d.nums)
            assert tuple(lengths) == trace.lengths
