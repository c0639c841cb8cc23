"""Stabilization of truncation code lengths and theorem-backed labels."""

from fractions import Fraction as F

import pytest

from prefixcode import (
    AlphaSequence,
    ExplicitHead,
    Geometric,
    anti_uniform_lengths,
    detect_stabilization,
    estimate_optimal_lengths,
    huffman_lengths,
    truncate,
    truncation_sequence,
)
from prefixcode.convergence import CERTIFIED, EMPIRICAL, csv_rows
from prefixcode.errors import (
    NotNormalizedError,
    NotSortedError,
    OutOfRangeError,
    SymbolOutOfRangeError,
)


class _WrongHeadSum(Geometric):
    """Claims S_n = 1 from n = 6 on, disagreeing with its own prefix."""

    def head_sum(self, n):
        return super().head_sum(n) if n < 6 else F(1)


class _Unsorted(Geometric):
    """Swaps p_3 and p_4, keeping every partial sum from n = 4 on."""

    def prefix_probs(self, n):
        probs = super().prefix_probs(n)
        if n >= 4:
            probs[2], probs[3] = probs[3], probs[2]
        return probs


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

    @pytest.mark.parametrize(
        "spec",
        [
            Geometric(F(1, 4)),
            AlphaSequence((F(3, 7), F(2, 5), F(9, 20))),
            ExplicitHead((F(1, 3), F(1, 4)), F(1, 3)),
            ExplicitHead((F(1, 3),), F(1, 2)),
        ],
        ids=lambda spec: spec.literal(),
    )
    def test_matches_renormalized_truncations(self, spec):
        expected = [huffman_lengths(truncate(spec, n)) for n in range(2, 129)]
        assert truncation_sequence(spec, 2, 128) == expected
        assert truncation_sequence(spec, 7, 40) == expected[5:39]

    def test_head_sum_mismatch_is_not_normalized(self):
        spec = _WrongHeadSum(F(1, 4))
        assert len(truncation_sequence(spec, 2, 5)) == 4
        with pytest.raises(NotNormalizedError):
            truncate(spec, 6)
        with pytest.raises(NotNormalizedError):
            truncation_sequence(spec, 2, 6)
        with pytest.raises(NotNormalizedError):
            estimate_optimal_lengths(spec, 1, n_max=40, window=8)

    def test_unsorted_prefix_is_rejected(self):
        spec = _Unsorted(F(1, 4))
        with pytest.raises(NotSortedError):
            truncate(spec, 4)
        with pytest.raises(NotSortedError):
            truncation_sequence(spec, 2, 12)

    def test_range_validation(self):
        with pytest.raises(OutOfRangeError):
            truncation_sequence(Geometric(F(1, 2)), 1, 8)
        with pytest.raises(OutOfRangeError):
            truncation_sequence(Geometric(F(1, 2)), 8, 4)


class TestDetectStabilization:
    def test_geometric_half_symbol_one(self):
        seq = truncation_sequence(Geometric(F(1, 2)), 2, 40)
        stab = detect_stabilization(seq, 1, 16)
        assert stab.stabilized and stab.length == 1

    def test_geometric_quarter_symbol_one(self):
        seq = truncation_sequence(Geometric(F(1, 4)), 2, 40)
        stab = detect_stabilization(seq, 1, 16)
        assert stab.length == 2

    def test_boundary_spec_runs_either_way(self):
        # top probability exactly 1/3 sits on an interval endpoint; no
        # theorem applies and oscillation is an accepted outcome
        spec = ExplicitHead((F(1, 3),), F(1, 2))
        seq = truncation_sequence(spec, 2, 80)
        stab = detect_stabilization(seq, 1, 16)
        assert stab.stabilized or len(stab.observed) == 16

    def test_symbol_out_of_range(self):
        seq = truncation_sequence(Geometric(F(1, 2)), 2, 10)
        with pytest.raises(SymbolOutOfRangeError):
            detect_stabilization(seq, 9, 4)

    def test_window_validation(self):
        seq = truncation_sequence(Geometric(F(1, 2)), 2, 10)
        with pytest.raises(OutOfRangeError):
            detect_stabilization(seq, 1, 100)


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
    from prefixcode import classify_l1_infinite

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
    assert csv_rows(report.length_prefixes, 3) == csv_rows(full, 3)
    assert "length_prefixes" not in report.to_dict()


def test_csv_rows_shape():
    seq = truncation_sequence(Geometric(F(1, 2)), 2, 6)
    rows = csv_rows(seq, 4)
    assert rows[0] == ["n", "l_1", "l_2", "l_3", "l_4"]
    assert rows[1] == ["2", "1", "1", "", ""]
    assert rows[-1] == ["6", "1", "2", "3", "4"]
