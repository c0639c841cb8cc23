"""Stabilization of truncation code lengths and theorem-backed labels."""

from dataclasses import dataclass
from fractions import Fraction as F

import pytest

from prefixcode import (
    AlphaSequence,
    ExplicitHead,
    Geometric,
    anti_uniform_lengths,
    check_infinite_tail,
    classify_l1,
    classify_l1_infinite,
    estimate_optimal_lengths,
    huffman_lengths,
    kernel,
    truncate,
    truncation_sequence,
)
from prefixcode.cli import _csv_text
from prefixcode.convergence import (
    CERTIFIED,
    EMPIRICAL,
    MAX_SWEEP_WORK,
    _final_run_starts,
    _sweep,
    check_sweep_work,
)
from prefixcode.errors import NotNormalizedError, NotSortedError, OutOfRangeError
from prefixcode.fileio import parse_source
from prefixcode.numutil import common_numerators
from prefixcode.sources import MAX_DENOMINATOR_BITS, AlphaVector, check_denominator_bits


class _WrongHeadSum(Geometric):
    """Claims S_n = 1 from n = 6 on, disagreeing with its own prefix."""

    def head_sum(self, n):
        return super().head_sum(n) if n < 6 else F(1)


class _Unsorted(Geometric):
    """Swaps p_3 and p_4, keeping every partial sum from n = 4 on."""

    def prefix_numerators(self, n):
        nums, den = super().prefix_numerators(n)
        if n >= 4:
            nums[2], nums[3] = nums[3], nums[2]
        return nums, den


@dataclass(frozen=True)
class _WrongProb(Geometric):
    """Raises p_k by a thousandth of itself: still sorted, no longer S_n."""

    k: int = 2

    def prefix_numerators(self, n):
        nums, den = super().prefix_numerators(n)
        scaled = [v * 1000 for v in nums]
        if n >= self.k:
            scaled[self.k - 1] = nums[self.k - 1] * 1001
        return scaled, den * 1000


class _ShiftedPair(Geometric):
    """Moves a thousandth of p_4 onto p_3: still sorted, and every S_n from
    n = 4 on holds, but p_3/p_2 and p_4/p_3 are not the tail ratio."""

    def prefix_numerators(self, n):
        nums, den = super().prefix_numerators(n)
        if n >= 4:
            shift = nums[3]
            nums, den = [v * 1000 for v in nums], den * 1000
            nums[2] += shift
            nums[3] -= shift
        return nums, den


class _WrongCover(Geometric):
    """Prefix and head sums of geom:1/4, alpha cover of geom:1/3."""

    def alphas_cover(self):
        return AlphaVector((F(1, 3),))


def _cover_head_sum(spec, n):
    """S_n of the spec's alpha cover, the sum the sweep checks."""
    return AlphaSequence(spec.alphas_cover().alphas).head_sum(n)


SWEEP_SPECS = [
    Geometric(F(1, 4)),
    AlphaSequence((F(3, 7), F(2, 5), F(9, 20))),
    ExplicitHead((F(1, 3), F(1, 4)), F(1, 3)),
    ExplicitHead((F(1, 3),), F(1, 2)),
]


class TestTruncationSequence:
    def test_geometric_half_is_skewed_at_every_size(self):
        seq = truncation_sequence(Geometric(F(1, 2)), 2, 20)
        for off, vec in enumerate(seq):
            assert vec == anti_uniform_lengths(2 + off)

    def test_constant_two_fifths_is_skewed(self):
        seq = truncation_sequence(AlphaSequence((F(2, 5),)), 4, 20)
        for off, vec in enumerate(seq):
            assert vec == anti_uniform_lengths(4 + off)

    def test_geometric_quarter_top_length_settles_at_two(self):
        seq = truncation_sequence(Geometric(F(1, 4)), 2, 64)
        for off, vec in enumerate(seq):
            n = 2 + off
            if n >= 5:
                assert vec[0] == 2

    @pytest.mark.parametrize("spec", SWEEP_SPECS, ids=lambda spec: spec.literal())
    def test_matches_renormalized_truncations(self, spec):
        expected = [huffman_lengths(truncate(spec, n)) for n in range(2, 129)]
        assert truncation_sequence(spec, 2, 128) == expected
        assert truncation_sequence(spec, 7, 40) == expected[5:39]
        # the report's depth-limited sweep keeps the leading lengths
        for depth in (1, 16, 120):
            report = estimate_optimal_lengths(spec, depth, n_max=128, window=8)
            assert report.length_prefixes == tuple(tuple(vec)[:depth] for vec in expected)

    def test_head_sum_mismatch_is_not_normalized(self):
        # truncate checks its prefix against head_sum; the sweep checks it
        # against the alpha cover and reads no head_sum
        spec = _WrongHeadSum(F(1, 4))
        assert len(truncation_sequence(spec, 2, 5)) == 4
        with pytest.raises(NotNormalizedError):
            truncate(spec, 6)

    @pytest.mark.parametrize("k, n_min", [(5, 5), (20, 2), (40, 2)],
                             ids=["at-n_min", "middle", "at-n_max"])
    def test_wrong_prefix_probability_names_its_partial_sum(self, k, n_min):
        # the first n whose prefix misses S_n raises, with the message of
        # check_head_sum at that n
        spec = _WrongProb(F(1, 4), k)
        want = str(NotNormalizedError(sum(spec.prefix_probs(k)) / spec.head_sum(k)))
        with pytest.raises(NotNormalizedError) as got:
            truncation_sequence(spec, n_min, 40)
        assert str(got.value) == want
        with pytest.raises(NotNormalizedError) as got:
            estimate_optimal_lengths(spec, 1, n_max=40, window=8)
        assert str(got.value) == want
        if k > n_min:
            assert len(truncation_sequence(spec, n_min, k - 1)) == k - n_min

    def test_alpha_cover_disagreeing_with_head_sum_is_a_bug(self):
        # the prefix of geom:1/4 misses the cover's S_2 (that of geom:1/3)
        spec = _WrongCover(F(1, 4))
        want = str(NotNormalizedError(sum(spec.prefix_probs(2)) / _cover_head_sum(spec, 2)))
        with pytest.raises(NotNormalizedError) as got:
            truncation_sequence(spec, 2, 8)
        assert str(got.value) == want

    def test_prefix_breaking_its_tail_ratio_is_a_bug(self):
        # S_n holds for every n >= 4, so from n_min = 4 on only the tail
        # ratio check sees p_3; from n_min = 2 on, S_3 names the bad sum
        spec = _ShiftedPair(F(1, 4))
        with pytest.raises(RuntimeError, match=r"p_3/p_2 is not the alpha cover's tail ratio 3/4"):
            truncation_sequence(spec, 4, 40)
        with pytest.raises(NotNormalizedError):
            truncation_sequence(spec, 2, 40)

    def test_unsorted_prefix_is_rejected(self):
        # a denominator past the int-to-str digit limit must still render in
        # the error message
        for ratio in (F(1, 4), F(1, 10**4400)):
            spec = _Unsorted(ratio)
            with pytest.raises(NotSortedError):
                truncate(spec, 4)
            with pytest.raises(NotSortedError):
                truncation_sequence(spec, 2, 12)

    def test_range_validation(self):
        with pytest.raises(OutOfRangeError):
            truncation_sequence(Geometric(F(1, 2)), 1, 8)
        with pytest.raises(OutOfRangeError):
            truncation_sequence(Geometric(F(1, 2)), 8, 4)
        with pytest.raises(OutOfRangeError):
            truncation_sequence(Geometric(F(1, 2)), 2, 4097)
        with pytest.raises(OutOfRangeError):
            truncate(Geometric(F(1, 2)), 4097)

    def test_denominator_bits_cap(self):
        # each term of a 1/2**63 ratio adds 64 bits to the estimate
        check_denominator_bits(Geometric(F(1, 2**63)), MAX_DENOMINATOR_BITS // 64)
        with pytest.raises(OutOfRangeError, match=f"limit of {MAX_DENOMINATOR_BITS} bits"):
            check_denominator_bits(Geometric(F(1, 2**63)), MAX_DENOMINATOR_BITS // 64 + 1)
        # refused before a term is built
        huge = Geometric(F(1, 10**100000))
        with pytest.raises(OutOfRangeError, match="up to 21260352 bits"):
            truncate(huge, 64)
        with pytest.raises(OutOfRangeError, match="up to 21260352 bits"):
            truncation_sequence(huge, 2, 64)
        with pytest.raises(OutOfRangeError, match="first 51 probabilities"):
            check_infinite_tail(AlphaSequence((F(1, 2), F(1, 10**100000))), 50)


# a 2**-255 ratio: at n = 1024 its prefix needs exactly the 2**18-bit cap
TINY_RATIO = Geometric(F(1, 2**255))


def test_sweep_work_is_merges_times_denominator_bits():
    # truncation n codes at most min(n, L + 2/alpha_L + 1) merges
    for spec, n_max in ((Geometric(F(3, 100)), 4096), (Geometric(F(1, 4)), 512),
                        (AlphaSequence((F(3, 7), F(2, 5), F(9, 20))), 700),
                        (TINY_RATIO, 64)):
        cover = spec.alphas_cover().alphas
        per_n = len(cover) + 1 + 2 * cover[-1].denominator // cover[-1].numerator
        merges = sum(min(n, per_n) for n in range(2, n_max + 1))
        assert check_sweep_work(spec, n_max) == merges * check_denominator_bits(spec, n_max)
    # the largest sweep the README times runs
    assert check_sweep_work(Geometric(F(3, 100)), 4096) <= MAX_SWEEP_WORK


def test_sweep_work_cap_refuses_before_any_term_is_built(monkeypatch):
    def unreachable(self, n):
        raise AssertionError("a term was built")

    monkeypatch.setattr(Geometric, "prefix_numerators", unreachable)
    check_denominator_bits(TINY_RATIO, 1024)  # within the denominator cap
    with pytest.raises(OutOfRangeError,
                       match=f"needs up to 137572909056 bit-merges, which exceeds "
                             f"the limit of {MAX_SWEEP_WORK}$"):
        truncation_sequence(TINY_RATIO, 2, 1024)
    with pytest.raises(OutOfRangeError, match="bit-merges"):
        estimate_optimal_lengths(TINY_RATIO, 16, n_max=1024)


class TestDetectStabilization:
    """The trailing-window verdict of :func:`estimate_optimal_lengths`."""

    def test_geometric_half_symbol_one(self):
        entry = estimate_optimal_lengths(Geometric(F(1, 2)), 1, n_max=40, window=16).per_symbol[0]
        assert entry.stabilized_length == 1 and entry.oscillation_witness is None

    def test_geometric_quarter_symbol_one(self):
        entry = estimate_optimal_lengths(Geometric(F(1, 4)), 1, n_max=40, window=16).per_symbol[0]
        assert entry.stabilized_length == 2

    def test_boundary_spec_runs_either_way(self):
        # top probability exactly 1/3 sits on an interval endpoint; no
        # theorem applies and oscillation is an accepted outcome
        spec = ExplicitHead((F(1, 3),), F(1, 2))
        entry = estimate_optimal_lengths(spec, 1, n_max=80, window=16).per_symbol[0]
        assert entry.status == EMPIRICAL
        if entry.stabilized_length is None:
            assert entry.oscillation_witness[0][0] == 65
        else:
            assert entry.stable_since <= 65

    def test_symbol_out_of_range(self):
        # symbol 9 is not in every window code of n = 7..10
        with pytest.raises(OutOfRangeError, match="^depth 9 exceeds n_max - window = 6$"):
            estimate_optimal_lengths(Geometric(F(1, 2)), 9, n_max=10, window=4)

    def test_window_validation(self):
        with pytest.raises(OutOfRangeError, match=r"^window must be in \[1, 9\], got 100$"):
            estimate_optimal_lengths(Geometric(F(1, 2)), 1, n_max=10, window=100)


class TestEstimate:
    def test_geometric_quarter_certified(self):
        report = estimate_optimal_lengths(Geometric(F(1, 4)), 1, n_max=128, window=16)
        entry = report.per_symbol[0]
        assert entry.status == CERTIFIED
        assert entry.stabilized_length == 2
        assert "l_1 = 2" in entry.certificate

    def test_constant_half_all_certified(self):
        report = estimate_optimal_lengths(AlphaSequence((F(1, 2),)), 8, n_max=128, window=16)
        for entry in report.per_symbol:
            assert entry.status == CERTIFIED
            assert entry.stabilized_length == entry.symbol

    def test_uncovered_symbols_are_empirical(self):
        report = estimate_optimal_lengths(Geometric(F(3, 10)), 3, n_max=96, window=16)
        sym1, sym2, sym3 = report.per_symbol
        assert sym1.status == CERTIFIED and sym1.stabilized_length == 2
        assert sym2.status == EMPIRICAL
        assert sym3.status == EMPIRICAL

    def test_window_growth_keeps_certificates(self):
        small = estimate_optimal_lengths(Geometric(F(1, 4)), 1, n_max=128, window=16)
        large = estimate_optimal_lengths(Geometric(F(1, 4)), 1, n_max=128, window=64)
        pick = lambda rep: (rep.per_symbol[0].status, rep.per_symbol[0].stabilized_length)
        assert pick(small) == pick(large)

    def test_depth_budget_validation(self):
        with pytest.raises(OutOfRangeError):
            estimate_optimal_lengths(Geometric(F(1, 2)), 100, n_max=64, window=32)
        with pytest.raises(OutOfRangeError, match="depth must be >= 1, got 0"):
            estimate_optimal_lengths(Geometric(F(1, 2)), 0, n_max=64, window=32)

    def test_report_dict_shape(self):
        report = estimate_optimal_lengths(Geometric(F(1, 4)), 2, n_max=64, window=8)
        d = report.to_dict()
        assert d["spec"] == "geom:1/4"
        assert {e["symbol"] for e in d["per_symbol"]} == {1, 2}
        for entry in d["per_symbol"]:
            assert set(entry) == {
                "symbol",
                "stabilized_length",
                "stable_since",
                "oscillation_witness",
                "status",
                "certificate",
            }


def test_classification_matches_stabilized_length_battery():
    # every spec with a determined classification must stabilize to it;
    # estimate_optimal_lengths raises internally on any contradiction
    battery = [
        Geometric(F(1, 4)),
        Geometric(F(9, 20)),
        Geometric(F(1, 2)),
        Geometric(F(1, 8)),
        AlphaSequence((F(1, 2), F(1, 4))),
        ExplicitHead((F(1, 4),), F(1, 3)),
    ]
    for spec in battery:
        cls = classify_l1_infinite(spec)
        assert cls.determined
        report = estimate_optimal_lengths(spec, 1, n_max=256, window=32)
        assert report.per_symbol[0].stabilized_length == cls.k
        assert report.per_symbol[0].status == CERTIFIED


def test_report_keeps_leading_lengths_only():
    spec = Geometric(F(1, 4))
    report = estimate_optimal_lengths(spec, 3, n_max=64, window=8)
    full = truncation_sequence(spec, 2, 64)
    assert report.length_prefixes == tuple(tuple(vec)[:3] for vec in full)
    assert _csv_text(report.length_prefixes, 3, 2) == _csv_text(full, 3, 2)
    assert "length_prefixes" not in report.to_dict()


# p1 in the intervals k = 1..5, near an edge (3/13 against 2/9) and on the
# p1 >= 1/2 rule; the early truncations of most have their own p1/S_n in
# another interval
SCAN_SPECS = ["geom:1/2", "geom:1/4", "geom:1/8", "geom:1/16", "geom:1/32", "geom:5/16",
              "geom:2/7", "geom:3/13", "alpha:[1/4,1/3]", "alpha:[3/7,2/5,9/20]"]


def test_small_windows_never_contradict_a_certificate():
    # every window of every n_max <= 40: a window of early truncations may
    # not reach the certified l_1 (an input error), but an observed l_1
    # never contradicts the certificate
    early = 0
    for literal in SCAN_SPECS:
        spec = parse_source(literal)
        for n_max in range(2, 41):
            for window in range(1, n_max):
                try:
                    estimate_optimal_lengths(spec, 1, n_max=n_max, window=window)
                except OutOfRangeError as exc:
                    assert str(exc).endswith("raise --nmax")
                    early += 1
    assert early == 513


def test_misclassified_truncation_tops_form_a_prefix():
    # why a window's top probability is checked at its first n only: the n
    # whose own p1/S_n does not classify as the source's l_1 are 2..N0
    prefixes = {}
    for literal in SCAN_SPECS:
        spec = parse_source(literal)
        cls = classify_l1_infinite(spec)
        if not cls.determined:
            continue
        p1 = spec.prob(1)
        wrong = [n for n in range(2, 401) if classify_l1(p1 / spec.head_sum(n)).k != cls.k]
        assert wrong == list(range(2, len(wrong) + 2))
        prefixes[literal] = len(wrong)
    assert [prefixes[f"geom:1/{b}"] for b in (2, 4, 8, 16, 32)] == [0, 3, 14, 41, 108]


def test_report_verdicts_match_the_first_window_verdict():
    # every symbol's length, stable_since and witness against the verdict as
    # first written, on windows of early and of late truncations
    oscillating = 0
    for literal in SCAN_SPECS:
        spec = parse_source(literal)
        for n_max, window in ((12, 1), (24, 8), (40, 20), (64, 32), (64, 63)):
            try:
                report = estimate_optimal_lengths(spec, n_max - window, n_max=n_max,
                                                  window=window)
            except OutOfRangeError as exc:  # a window too early for the certified l_1
                assert str(exc).endswith("raise --nmax")
                continue
            seq = report.length_prefixes
            for entry in report.per_symbol:
                length, observed = _reference_stabilization(seq, entry.symbol, window)
                assert entry.stabilized_length == length
                if length is not None:
                    assert entry.stable_since == _reference_stable_since(
                        seq, entry.symbol, window, length)
                    assert entry.oscillation_witness is None
                    continue
                oscillating += 1
                changes = [observed[0]]
                for n, l in observed[1:]:
                    if l != changes[-1][1]:
                        changes.append((n, l))
                assert entry.stable_since is None
                assert entry.oscillation_witness == tuple(changes)
    assert oscillating > 0


def _reference_csv_rows(seq, depth, n_min=2):
    """The CSV rows as first written: one branch per cell."""
    rows = [["n"] + [f"l_{i}" for i in range(1, depth + 1)]]
    for off, vec in enumerate(seq):
        rows.append([str(n_min + off)]
                    + [str(vec[i - 1]) if i <= len(vec) else "" for i in range(1, depth + 1)])
    return rows


def _reference_csv_text(seq, depth, n_min=2):
    """The CSV file as first written from the reference rows."""
    return "\n".join(",".join(row) for row in _reference_csv_rows(seq, depth, n_min)) + "\n"


def test_csv_rows_shape():
    seq = truncation_sequence(Geometric(F(1, 2)), 2, 6)
    rows = _reference_csv_rows(seq, 4)
    assert rows[0] == ["n", "l_1", "l_2", "l_3", "l_4"]
    assert rows[1] == ["2", "1", "1", "", ""]
    assert rows[-1] == ["6", "1", "2", "3", "4"]
    assert _csv_text(seq, 4, 2).split("\n") == [",".join(row) for row in rows] + [""]


def _reference_stabilization(seq, symbol, window):
    """The trailing-window verdict as first written: the symbol's length if
    it is constant over the last ``window`` entries (else None), and the
    ``(n, length)`` pairs of those entries, ``seq[0]`` being n = 2."""
    first_n = 2 + len(seq) - window
    tail = seq[len(seq) - window :]
    observed = tuple((first_n + off, vec[symbol - 1]) for off, vec in enumerate(tail))
    values = {length for _, length in observed}
    return (values.pop() if len(values) == 1 else None), observed


def _reference_stable_since(seq, symbol, window, length):
    """The report's stable_since as first written: from the window's first
    n, step back while the entry holds the symbol at the stabilized length."""
    stable_since = 2 + len(seq) - window
    idx = len(seq) - window - 1
    while idx >= 0 and symbol <= len(seq[idx]) and seq[idx][symbol - 1] == length:
        stable_since = 2 + idx
        idx -= 1
    return stable_since


def _random_length_rows(rng):
    """Rows for n = 2, 3, ... holding min(n, cap) lengths from 1..3 (long
    equal runs), and a csv depth below, at or above cap."""
    cap, depth = rng.randint(1, 10), rng.randint(1, 10)
    seq = [tuple(rng.choice((1, 1, 1, 2, 3)) for _ in range(min(n, cap)))
           for n in range(2, rng.randint(3, 40))]
    return seq, depth


def test_csv_rows_and_stable_since_match_their_first_versions(rng):
    stabilized = 0
    for _ in range(500):
        seq, depth = _random_length_rows(rng)
        assert _csv_text(seq, depth, 2) == _reference_csv_text(seq, depth)
        assert _csv_text(seq, depth, 5) == _reference_csv_text(seq, depth, 5)
        since = _final_run_starts(seq)
        window = rng.randint(1, len(seq))
        for symbol in range(1, len(seq[-1]) + 1):
            if symbol > len(seq) + 2 - window:
                continue  # not in every window entry
            length, _ = _reference_stabilization(seq, symbol, window)
            # the report's verdict: stabilized iff the final run holds the window
            assert (since[symbol - 1] <= len(seq) + 2 - window) == (length is not None)
            if length is not None:
                stabilized += 1
                assert since[symbol - 1] == _reference_stable_since(
                    seq, symbol, window, length)
    assert stabilized > 200


def _reference_final_run_starts(seq):
    """Each symbol's final-run start by the first-written stable_since: a
    window of one entry, stepped back while the symbol keeps its last length."""
    return [_reference_stable_since(seq, symbol, 1, seq[-1][symbol - 1])
            for symbol in range(1, len(seq[-1]) + 1)]


def test_final_run_starts_on_long_equal_tails(rng):
    # a short varied start, then the last entry repeated hundreds of times
    for _ in range(200):
        seq, _ = _random_length_rows(rng)
        seq += [seq[-1]] * rng.choice((1, 50, 300))
        assert _final_run_starts(seq) == _reference_final_run_starts(seq)
    assert _final_run_starts([(1, 2)] * 400) == [2, 2]


def test_final_run_starts_when_one_symbol_changes_at_a_time(rng):
    # each entry repeats the one before, changes one of its symbols while
    # the others hold, or holds one symbol more
    for _ in range(200):
        size = rng.randint(1, 8)
        row = [rng.randint(1, 3) for _ in range(size)]
        seq = [tuple(row)]
        for _ in range(rng.randint(1, 60)):
            if len(row) < 12 and rng.random() < 0.1:
                row.append(rng.randint(1, 3))
            elif rng.random() < 0.5:
                symbol = rng.randrange(len(row))
                row[symbol] = rng.choice([v for v in (1, 2, 3) if v != row[symbol]])
            seq.append(tuple(row))
        assert _final_run_starts(seq) == _reference_final_run_starts(seq)


def leading_depths(nums, d):
    """Depths of the first d leaves of the full run over `nums`; like
    :func:`kernel.run_merges`, raises ValueError below two weights."""
    return kernel.run_merges(nums)[0][:d]


def _per_n_depths(spec, n_min, n_max, depth):
    """The sweep as it first ran: the kernel from scratch on every prefix."""
    nums, _ = common_numerators(spec.prefix_probs(n_max))
    return [leading_depths(nums[:n], depth) for n in range(n_min, n_max + 1)]


def _random_alpha_spec(rng):
    """An alpha list of length 1..6 with denominators up to 9 (many ties)."""
    while True:
        alphas = []
        for _ in range(rng.randint(1, 6)):
            q = rng.randint(2, 9)
            alphas.append(F(rng.randint(1, q - 1), q))
        try:
            return AlphaSequence(tuple(alphas))
        except NotSortedError:
            continue


def test_frontier_sweep_equals_per_n_kernel_on_random_alpha_lists(rng):
    for _ in range(300):
        spec = _random_alpha_spec(rng)
        n_max = rng.randint(2, 160)
        n_min = rng.choice((2, rng.randint(2, n_max)))
        for depth in (rng.randint(1, n_max), n_max):
            assert list(_sweep(spec, n_min, n_max, depth)) == _per_n_depths(
                spec, n_min, n_max, depth
            ), (spec.literal(), n_min, n_max, depth)


@pytest.mark.parametrize(
    "spec", SWEEP_SPECS + [Geometric(F(1, 2)), Geometric(F(3, 100))],
    ids=lambda spec: spec.literal(),
)
def test_frontier_sweep_equals_per_n_kernel_at_512(spec):
    assert list(_sweep(spec, 2, 512, 16)) == _per_n_depths(spec, 2, 512, 16)


TEN_HALVES = AlphaSequence((F(1, 2),) * 10)


def test_sweep_of_head_only_truncations_equals_per_n_kernel():
    # the cover is 10 ratios long, so no truncation up to n = 8 has a tail
    assert len(TEN_HALVES.alphas_cover().alphas) == 10
    for n_min in (2, 5, 8):
        for depth in (1, 2, 8):
            assert list(_sweep(TEN_HALVES, n_min, 8, depth)) == _per_n_depths(
                TEN_HALVES, n_min, 8, depth
            )


@pytest.mark.parametrize("spec, n_bad", [(_WrongProb(F(1, 4), 20), 20),
                                         (_WrongCover(F(1, 4)), 2)],
                         ids=["wrong-p20", "wrong-cover"])
def test_faulty_prefix_is_refused_before_any_truncation_is_coded(
    spec, n_bad, monkeypatch
):
    # _WrongProb misses S_20; _WrongCover's prefix misses its cover's S_2
    want = str(NotNormalizedError(sum(spec.prefix_probs(n_bad)) / _cover_head_sum(spec, n_bad)))
    coded = []
    tail_depths = kernel.tail_depths

    def counting(*args):
        for depths in tail_depths(*args):
            coded.append(depths)
            yield depths

    monkeypatch.setattr(kernel, "tail_depths", counting)
    with pytest.raises(NotNormalizedError) as got:
        truncation_sequence(spec, 2, 40)
    assert str(got.value) == want
    assert coded == []
