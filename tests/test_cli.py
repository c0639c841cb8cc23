"""CLI subcommands: JSON reports, consistency, exit codes."""

import json
import subprocess
import sys
from fractions import Fraction as F

import pytest

from prefixcode import classify_l1, kernel
from prefixcode.cli import run


@pytest.fixture
def dist_file(tmp_path):
    path = tmp_path / "dist.txt"
    path.write_text("# skewed example\n2/5\n3/10\n\n1/5\n0.1\n", encoding="utf-8")
    return str(path)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out), out


class TestAnalyze:
    def test_report_fields_and_consistency(self, capsys, dist_file):
        report, _ = run_json(capsys, ["analyze", f"file:{dist_file}"])
        assert report["command"] == "analyze"
        results = report["results"]
        assert results["probs"] == ["2/5", "3/10", "1/5", "1/10"]
        assert results["lengths"] == [1, 2, 3, 3]
        assert results["expected_length"] == "19/10"
        assert results["kraft_sum"] == "1"
        # the tree and delta views agree; p1 = 2/5 sits exactly on an
        # interval endpoint so classification is undetermined
        assert results["l1"]["from_tree"] == 1
        assert results["delta"]["l1_floor_log2"] == 1
        assert results["l1"]["classification"]["k"] is None
        assert results["l1"]["classification"]["gap_between"] == [1, 2]
        assert report["provenance"]["ruleset"] == "standardized-merge/insert-before-equals"

    def test_round_trip_is_bit_identical(self, capsys, dist_file):
        _, out = run_json(capsys, ["analyze", f"file:{dist_file}"])
        assert json.dumps(json.loads(out), indent=2) == out.rstrip("\n")

    def test_truncate_spec_literal(self, capsys):
        report, _ = run_json(capsys, ["analyze", "geom:1/2", "--truncate", "3"])
        assert report["results"]["probs"] == ["4/7", "2/7", "1/7"]

    def test_spec_literal_without_truncate_is_input_error(self, capsys):
        assert run(["analyze", "geom:1/2"]) == 2

    def test_trace_export(self, capsys, dist_file, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        report, _ = run_json(capsys, ["analyze", f"file:{dist_file}", "--trace", str(trace_path)])
        lines = trace_path.read_text().strip().splitlines()
        records = [json.loads(l) for l in lines]
        assert len(records) == 3
        assert records[0] == {
            "m": 1,
            "k": 2,
            "merged": "3/10",
            "state": ["2/5", "3/10", "3/10"],
        }


class TestClassify:
    def test_determined(self, capsys):
        report, _ = run_json(capsys, ["classify-l1", "0.25"])
        assert report["results"]["k"] == 2
        assert report["results"]["interval"] == {"lower": "2/9", "upper": "1/3"}

    def test_undetermined_message(self, capsys):
        report, _ = run_json(capsys, ["classify-l1", "1/5"])
        assert report["results"]["k"] is None
        assert report["results"]["message"] == "UNDETERMINED(gap between k=2 and k=3)"

    def test_bad_value_is_input_error(self):
        assert run(["classify-l1", "7/5"]) == 2
        assert run(["classify-l1", "zebra"]) == 2

    def test_huge_rational_renders(self, capsys):
        limit = sys.get_int_max_str_digits()
        report, _ = run_json(capsys, ["classify-l1", "1e-20000"])
        assert report["inputs"]["p1"] == "1/1" + "0" * 20000
        assert report["results"]["k"] == classify_l1(F(1, 10**20000)).k
        assert sys.get_int_max_str_digits() == limit


class TestDelta:
    def test_found(self, capsys, dist_file):
        report, _ = run_json(capsys, ["delta", f"file:{dist_file}"])
        assert report["results"]["kind"] == "FOUND"
        assert report["results"]["delta"] == 1
        assert report["results"]["state"] == ["2/5", "3/10", "3/10"]
        assert report["results"]["l1_floor_log2"] == 1


class TestAntiUniform:
    def test_finite(self, capsys, dist_file):
        report, _ = run_json(capsys, ["anti-uniform", f"file:{dist_file}"])
        assert report["results"]["mode"] == "finite"
        assert report["results"]["holds"] is True

    def test_infinite_violation_witness(self, capsys):
        report, _ = run_json(capsys, ["anti-uniform", "geom:1/5", "--depth", "10"])
        assert report["results"]["holds"] is False
        assert report["results"]["first_violation"] == 1
        assert report["results"]["witness"] == {"tail_sum": "16/25", "p_i": "1/5"}

    def test_criterion_statement(self, capsys):
        report, _ = run_json(capsys, ["anti-uniform", "alpha:[2/5]", "--depth", "12"])
        assert report["results"]["holds"] is True
        assert "l_i = i for all i <= 12" in report["results"]["criterion"]


class TestOracle:
    def test_full(self, capsys, dist_file):
        report, _ = run_json(capsys, ["oracle", dist_file])
        assert report["results"]["optimum"] == "19/10"
        assert [1, 2, 3, 3] in report["results"]["vectors"]

    def test_count_only(self, capsys, dist_file):
        report, _ = run_json(capsys, ["oracle", dist_file, "--count-only"])
        assert report["results"]["universe_size"] == 2

    def test_missing_file(self):
        assert run(["oracle", "/nonexistent/dist.txt"]) == 2


class TestConverge:
    def test_report_and_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "series.csv"
        report, _ = run_json(
            capsys,
            ["converge", "--spec", "geom:1/4", "--depth", "2",
             "--nmax", "48", "--window", "8", "--csv", str(csv_path)],
        )
        sym1 = report["results"]["per_symbol"][0]
        assert sym1["status"] == "CERTIFIED"
        assert sym1["stabilized_length"] == 2
        rows = csv_path.read_text().strip().splitlines()
        assert rows[0] == "n,l_1,l_2"
        assert len(rows) == 48  # header + n = 2..48
        assert rows[1].startswith("2,")

    def test_csv_reuses_the_report_sweep(self, capsys, tmp_path, monkeypatch):
        sizes = []
        run_merges = kernel.run_merges

        def counting(nums, *args, **kwargs):
            sizes.append(len(nums))
            return run_merges(nums, *args, **kwargs)

        monkeypatch.setattr(kernel, "run_merges", counting)
        run_json(
            capsys,
            ["converge", "--spec", "geom:1/4", "--depth", "2", "--nmax", "48",
             "--window", "8", "--csv", str(tmp_path / "series.csv")],
        )
        assert sizes == list(range(2, 49))  # one kernel run per n, nmax - 1 in all

    def test_finite_source_rejected(self, capsys, dist_file):
        assert run(["converge", "--spec", f"file:{dist_file}", "--depth", "1"]) == 2


class TestCoverage:
    def test_certified_digits(self, capsys):
        report, _ = run_json(capsys, ["coverage-sum", "--terms", "10"])
        results = report["results"]
        assert results["partial_decimal"] == "0.744362"
        assert results["total_upper_decimal_ceil"] == "0.746315"
        assert results["partial"].count("/") == 1


class TestCounterexample:
    def test_build_and_analyze(self, capsys):
        report, _ = run_json(
            capsys, ["counterexample", "2", "--epsilon", "1/36", "--analyze"]
        )
        assert report["results"]["probs"][0] == "7/36"
        assert report["results"]["analysis"]["lengths"][0] == 3

    def test_epsilon_validation(self):
        assert run(["counterexample", "1", "--epsilon", "1/2"]) == 2


class TestEnvelope:
    def test_quiet_drops_inputs(self, capsys):
        report, _ = run_json(capsys, ["coverage-sum", "--terms", "2", "--quiet"])
        assert "inputs" not in report

    def test_quiet_before_subcommand(self, capsys):
        report, _ = run_json(capsys, ["--quiet", "coverage-sum", "--terms", "2"])
        assert "inputs" not in report

    def test_unknown_subcommand_exits_2(self):
        assert run(["frobnicate"]) == 2

    def test_internal_value_error_exits_1(self, monkeypatch, dist_file):
        def broken(*args, **kwargs):
            raise ValueError("kernel invariant broken")

        monkeypatch.setattr(kernel, "run_merges", broken)
        assert run(["analyze", f"file:{dist_file}"]) == 1


def test_console_script_installed(dist_file):
    proc = subprocess.run(
        [sys.executable, "-m", "prefixcode.cli", "analyze", f"file:{dist_file}"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["lengths"] == [1, 2, 3, 3]
