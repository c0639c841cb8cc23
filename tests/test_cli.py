"""CLI subcommands: JSON reports, consistency, exit codes."""

import importlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from prefixcode import ExplicitHead, Geometric, cli, classify_l1, counterexample, kernel, truncate
from prefixcode.cli import run
from prefixcode.delta import delta_occasion
from prefixcode.fileio import parse_source, read_distribution_file
from prefixcode.huffman import huffman, huffman_lengths
from prefixcode.numutil import weight_strs
from randgen import near_uniform_distribution, random_distribution, tie_heavy_distribution
from test_convergence import _reference_csv_text
from test_huffman import reference_trace_lines, trace_instances


@pytest.fixture(autouse=True)
def reports_render_as_json_does(monkeypatch):
    """Every report this module renders has the bytes json.dumps gives it."""
    render = cli.render_report

    def checked(*args):
        text = render(*args)
        assert text == json.dumps(json.loads(text), indent=2)
        return text

    monkeypatch.setattr(cli, "render_report", checked)


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


    def test_untraced_analyze_never_builds_a_trace(self, capsys, dist_file, monkeypatch):
        def refuse(dist):
            raise AssertionError("huffman() called without --trace")

        monkeypatch.setattr(cli, "huffman", refuse)
        report, _ = run_json(capsys, ["analyze", f"file:{dist_file}"])
        assert report["results"]["lengths"] == [1, 2, 3, 3]
        run_json(capsys, ["counterexample", "2", "--analyze"])

    @pytest.mark.parametrize("argv, dist", [
        (["analyze", "file:{dist_file}"], None),
        (["counterexample", "2", "--analyze"], counterexample(2, F(0))),
        (["counterexample", "3", "--epsilon", "1/24"], counterexample(3, F(1, 24))),
    ])
    def test_trace_runs_the_kernel_once(self, capsys, dist_file, tmp_path, monkeypatch,
                                        argv, dist):
        calls = []
        run_merges = kernel.run_merges

        def counting(nums, *args, **kwargs):
            calls.append(len(nums))
            return run_merges(nums, *args, **kwargs)

        monkeypatch.setattr(kernel, "run_merges", counting)
        trace_path = tmp_path / "trace.jsonl"
        argv = [a.format(dist_file=dist_file) for a in argv]
        report, _ = run_json(capsys, argv + ["--trace", str(trace_path)])
        if dist is None:
            dist = read_distribution_file(dist_file)
        assert calls == [dist.n]
        assert trace_path.read_bytes() == (
            "\n".join(reference_trace_lines(dist)) + "\n").encode()
        assert report["results"]["trace_file"] == str(trace_path)


@pytest.mark.parametrize("argv", [
    ["analyze", "file:{dist_file}"],
    ["analyze", "geom:1/4", "--truncate", "100"],
    ["analyze", "alpha:[3/7,2/5,9/20]", "--truncate", "60"],
    ["analyze", "alpha:[2/5]", "--truncate", "128"],
    ["counterexample", "2", "--epsilon", "1/36"],
    ["counterexample", "3", "--analyze"],
], ids=lambda argv: " ".join(argv[:2]))
def test_trace_size_is_the_bytes_written(capsys, dist_file, tmp_path, monkeypatch, argv):
    # under the ceiling the command never asks for the exact size, so the
    # trace it builds is captured and sized here
    traces = []
    build = cli.huffman

    def capturing(dist):
        lengths, trace = build(dist)
        traces.append(trace)
        return lengths, trace

    monkeypatch.setattr(cli, "huffman", capturing)
    trace_path = tmp_path / "trace.jsonl"
    run_json(capsys, [a.format(dist_file=dist_file) for a in argv] + ["--trace", str(trace_path)])
    [trace] = traces
    written = trace_path.stat().st_size
    assert trace.json_size() == written
    assert trace.json_size_ceiling() >= written


@pytest.mark.parametrize("argv", [
    ["analyze", "geom:1/4", "--truncate", "200"],
    ["analyze", "alpha:[3/7,2/5,9/20]", "--truncate", "60"],
    ["counterexample", "1", "--epsilon", "1/12", "--analyze"],
], ids=lambda argv: " ".join(argv[:2]))
def test_trace_under_its_ceiling_is_not_sized_further(capsys, tmp_path, monkeypatch, argv):
    def unsized(*args):
        raise AssertionError("trace sized past its ceiling")

    monkeypatch.setattr(cli.MergeTrace, "json_size_floor", unsized)
    monkeypatch.setattr(cli.MergeTrace, "json_size", unsized)
    trace_path = tmp_path / "trace.jsonl"
    report, _ = run_json(capsys, argv + ["--trace", str(trace_path)])
    assert report["results"]["trace_file"] == str(trace_path)
    assert trace_path.stat().st_size > 0


@pytest.mark.parametrize("argv", [
    ["analyze", "file:{dist_file}"],
    ["analyze", "geom:1/4", "--truncate", "100"],
    ["analyze", "alpha:[3/7,2/5,9/20]", "--truncate", "60"],
    ["counterexample", "1", "--epsilon", "1/12", "--analyze"],
    ["counterexample", "3", "--analyze"],
], ids=lambda argv: " ".join(argv[:2]))
def test_traced_report_is_the_untraced_one_plus_its_file(capsys, dist_file, tmp_path, argv):
    argv = [a.format(dist_file=dist_file) for a in argv]
    trace_path = str(tmp_path / "trace.jsonl")
    report, _ = run_json(capsys, argv)
    _, traced = run_json(capsys, argv + ["--trace", trace_path])
    report["results"]["trace_file"] = trace_path
    assert traced == json.dumps(report, indent=2) + "\n"


def test_traced_analyze_renders_each_input_weight_once(capsys, monkeypatch):
    dist = truncate(Geometric(F(1, 4)), 64)
    state = delta_occasion(dist).state
    rendered = []
    for module in (cli, importlib.import_module("prefixcode.huffman")):
        render = module.weight_strs

        def recording(nums, den, render=render, name=module.__name__):
            rendered.append((name, tuple(nums), den))
            return render(nums, den)

        monkeypatch.setattr(module, "weight_strs", recording)
    for trace in (["--trace", os.devnull], []):
        rendered.clear()
        report, _ = run_json(capsys, ["analyze", "geom:1/4", "--truncate", "64", *trace])
        results = report["results"]
        assert results["probs"] == weight_strs(dist.nums, dist.den)
        assert results["delta"]["state"] == weight_strs(state.nums, state.den)
        # the delta state is one call of its own, as the delta command makes it
        delta_call = ("prefixcode.cli", state.nums, state.den)
        assert rendered.count(delta_call) == 1
        rendered.remove(delta_call)
        # the other calls render every input weight (all distinct here)
        # exactly once: through the trace's rendering, which also renders
        # the merge sums, when traced, else through the report's own
        if trace:
            inputs, (module, sums, den) = rendered
            assert inputs == ("prefixcode.huffman", dist.nums, dist.den)
            assert module == "prefixcode.huffman"
            assert not {F(v, den) for v in sums} & set(dist.probs)
        else:
            assert rendered == [("prefixcode.cli", dist.nums, dist.den)]


def test_analyze_delta_is_the_delta_commands(capsys, tmp_path, rng):
    # analyze prints the delta command's results as its "delta"; ties put
    # merge sums equal to input weights into the delta state
    trivial = tmp_path / "trivial.txt"  # p1 >= 1/2
    trivial.write_text("1/2\n1/4\n1/8\n1/8\n", encoding="utf-8")
    sources = [[f"file:{trivial}"], ["geom:1/4", "--truncate", "128"],
               ["alpha:[3/7,2/5,9/20]", "--truncate", "60"]]
    for make in (random_distribution, tie_heavy_distribution, near_uniform_distribution):
        for i in range(20):
            path = tmp_path / f"{make.__name__}-{i}.txt"
            dist = make(rng, rng.randint(2, 60))
            path.write_text("".join(f"{p}\n" for p in dist.probs), encoding="utf-8")
            sources.append([f"file:{path}"])
    kinds = set()
    for source in sources:
        analysis, _ = run_json(capsys, ["analyze", *source])
        delta, _ = run_json(capsys, ["delta", *source])
        assert analysis["results"]["delta"] == delta["results"]
        kinds.add(delta["results"]["kind"])
    assert kinds == {"TRIVIAL", "ZERO", "FOUND"}


class RawRecorder(io.RawIOBase):
    """An unbuffered file that records the size of each write it takes, and
    takes at most ``most`` bytes per call."""

    def __init__(self, path, most=None):
        self.file = io.FileIO(path, "w")
        self.most = most
        self.sizes = []

    def writable(self):
        return True

    def write(self, data):
        size = self.file.write(data[:self.most])
        self.sizes.append(size)
        return size

    def close(self):
        self.file.close()
        super().close()


def record_opened_files(monkeypatch, most=None):
    """Route the CLI's ``open`` through a :class:`RawRecorder`, under the
    buffer and text layers its mode asks for; the list of the recorders
    opened, to be read once the command is done."""
    opened = []

    def opening(path, mode="r", buffering=-1, encoding=None):
        raw = RawRecorder(path, most)
        opened.append(raw)
        if buffering == 0:
            return raw
        buffered = io.BufferedWriter(raw)
        return buffered if "b" in mode else io.TextIOWrapper(buffered, encoding=encoding)

    monkeypatch.setattr(cli, "open", opening, raising=False)
    return opened


@pytest.mark.parametrize("argv, dist", [
    (["analyze", "geom:1/4", "--truncate", "2"], truncate(Geometric(F(1, 4)), 2)),
    (["analyze", "file:{dist_file}"], None),
    (["analyze", "geom:1/4", "--truncate", "40"], truncate(Geometric(F(1, 4)), 40)),
    (["counterexample", "3", "--epsilon", "1/24"], counterexample(3, F(1, 24))),
], ids=["n=2", "file", "n=40", "counterexample"])
@pytest.mark.parametrize("block", [1, 100, "first line", None],
                         ids=["1", "100", "first-line", "default"])
def test_trace_is_written_in_blocks_of_whole_lines(capsys, dist_file, tmp_path, monkeypatch,
                                                   argv, dist, block):
    # a block of 1 writes every line on its own; 100 bytes is straddled by
    # the lines of the file's 4 symbols and exceeded by every line at
    # n = 40; "first line" is filled exactly by the first line
    argv = [a.format(dist_file=dist_file) for a in argv]
    lines = reference_trace_lines(dist or read_distribution_file(dist_file))
    if block == "first line":
        block = len(lines[0]) + 1
    if block is None:
        block = cli.TRACE_BLOCK_BYTES
    else:
        monkeypatch.setattr(cli, "TRACE_BLOCK_BYTES", block)
    opened = record_opened_files(monkeypatch)
    path = tmp_path / "trace.jsonl"
    run_json(capsys, argv + ["--trace", str(path)])
    data = path.read_bytes()
    assert data == ("\n".join(lines) + "\n").encode()
    [raw] = opened
    ends = list(itertools.accumulate(raw.sizes))
    assert ends[-1] == len(data)
    # each write holds whole lines, the fewest that reach the block; only
    # the last may fall short of it
    for start, end in zip([0, *ends], ends):
        chunk = data[start:end]
        assert chunk.endswith(b"\n")
        assert chunk.rfind(b"\n", 0, -1) + 1 < block
        assert len(chunk) >= block or end == len(data)


def test_written_trace_is_the_reference(rng, tmp_path):
    # the same instances as the trace's own lines are checked on
    path = tmp_path / "trace.jsonl"
    for d in trace_instances(rng):
        _, trace = huffman(d)
        cli._write_trace(trace, str(path))
        assert path.read_bytes() == ("\n".join(reference_trace_lines(d)) + "\n").encode()


def test_trace_reaches_its_file_in_blocks(capsys, tmp_path, monkeypatch):
    # 19.4 MB in 319 lines of up to 119 kB each
    opened = record_opened_files(monkeypatch)
    path = tmp_path / "trace.jsonl"
    run_json(capsys, ["analyze", "geom:1/4", "--truncate", "320", "--trace", str(path)])
    size = path.stat().st_size
    [raw] = opened
    assert sum(raw.sizes) == size == 19388006
    assert len(raw.sizes) <= -(-size // cli.TRACE_BLOCK_BYTES) + 1


def test_short_writes_still_receive_the_whole_trace(capsys, tmp_path, monkeypatch):
    opened = record_opened_files(monkeypatch, most=1000)
    path = tmp_path / "trace.jsonl"
    run_json(capsys, ["analyze", "geom:1/4", "--truncate", "100", "--trace", str(path)])
    assert path.read_bytes() == (
        "\n".join(reference_trace_lines(truncate(Geometric(F(1, 4)), 100))) + "\n").encode()
    [raw] = opened
    assert max(raw.sizes) == 1000


@pytest.mark.parametrize("argv", [
    ["analyze", "file:{dist_file}", "--trace"],
    ["counterexample", "2", "--trace"],
    ["counterexample", "2", "--analyze", "--trace"],
    ["converge", "--spec", "geom:1/2", "--depth", "3", "--nmax", "16", "--window", "4",
     "--csv"],
], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
@pytest.mark.parametrize("path", ["", "{tmp}"], ids=["empty", "directory"])
def test_unwritable_output_path_exits_2(capsys, dist_file, tmp_path, argv, path):
    argv = [a.format(dist_file=dist_file) for a in argv] + [path.format(tmp=tmp_path)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno ")
    assert list(tmp_path.iterdir()) == [Path(dist_file)]


@pytest.mark.parametrize("argv, bound", [
    pytest.param(["analyze", "geom:1/4", "--truncate", "100"], "", id="analyze"),
    # the floor counts every digit of counterexample 2's ninths, so it
    # reaches the size and refuses the trace first
    pytest.param(["counterexample", "2", "--analyze"], "at least ", id="counterexample"),
])
def test_trace_past_its_cap_exits_2_and_writes_nothing(capsys, tmp_path, monkeypatch, argv,
                                                       bound):
    trace_path = tmp_path / "trace.jsonl"
    run_json(capsys, argv + ["--trace", str(trace_path)])
    size = trace_path.stat().st_size
    trace_path.unlink()
    monkeypatch.setattr(cli, "MAX_TRACE_BYTES", size - 1)
    assert run(argv + ["--trace", str(trace_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: --trace would write {bound}{size} bytes, which exceeds the limit {size - 1}\n")
    assert not trace_path.exists()
    monkeypatch.setattr(cli, "MAX_TRACE_BYTES", size)
    run_json(capsys, argv + ["--trace", str(trace_path)])
    assert trace_path.stat().st_size == size


def test_oversized_trace_is_refused_before_rendering(capsys, tmp_path, monkeypatch):
    # the bit-length floor (3.0e9 bytes; 8.6e10 exactly) passes the cap, so
    # no weight is rendered, neither the shared gcd of the weights nor the
    # exact size is computed
    def unrendered(*args):
        raise AssertionError("weights rendered")

    monkeypatch.setattr(cli.MergeTrace, "json_size", unrendered)
    huffman_module = importlib.import_module("prefixcode.huffman")
    monkeypatch.setattr(huffman_module, "weight_strs", unrendered)
    monkeypatch.setattr(huffman_module, "shared_divisor", unrendered)
    trace_path = tmp_path / "trace.jsonl"
    argv = ["analyze", "alpha:[3/7,2/5,9/20]", "--truncate", "4096", "--trace", str(trace_path)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: --trace would write at least \d+ bytes, which exceeds the "
                        rf"limit {cli.MAX_TRACE_BYTES}\n", captured.err)
    assert not trace_path.exists()


@pytest.mark.parametrize("source, n", [("geom:1/4", 2400), ("alpha:[3/7,2/5,9/20]", 1500)])
def test_trace_past_its_cap_is_refused_by_its_reduced_floor(capsys, tmp_path, monkeypatch,
                                                            source, n):
    # above the cap both by the floor of the reduced weights (8.05e9 and
    # 4.25e9 bytes) and not by the bound from bit lengths alone, so the
    # shared gcd decides, and no weight is rendered
    def unrendered(*args):
        raise AssertionError("weights rendered")

    monkeypatch.setattr(cli.MergeTrace, "json_size", unrendered)
    for module in (cli, importlib.import_module("prefixcode.huffman")):
        monkeypatch.setattr(module, "weight_strs", unrendered)
    trace_path = tmp_path / "trace.jsonl"
    assert run(["analyze", source, "--truncate", str(n), "--trace", str(trace_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    floor = int(re.fullmatch(r"error: --trace would write at least (\d+) bytes, which exceeds "
                             rf"the limit {cli.MAX_TRACE_BYTES}\n", captured.err)[1])
    _, trace = huffman(truncate(parse_source(source), n))
    assert trace.json_size_floor(limit=0) <= cli.MAX_TRACE_BYTES < floor
    assert not trace_path.exists()


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


@pytest.mark.parametrize("argv", [
    ["classify-l1", "1e5000"],
    ["converge", "--spec", "geom:1e5000", "--depth", "1"],
    ["analyze", "geom:-1e5000", "--truncate", "4"],
    ["anti-uniform", "alpha:[1/2,1e5000]"],
    ["counterexample", "2", "--epsilon", "1e5000"],
])
def test_huge_out_of_range_rational_is_input_error(capsys, argv):
    limit = sys.get_int_max_str_digits()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "1" + "0" * 5000 in err
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("literal", ["geom:1e-5000", "alpha:[1/2,1e-5000]"])
def test_huge_ratio_renders_in_the_converge_report(capsys, literal):
    # the report echoes the spec literal, whose denominator has more digits
    # than the int-to-str limit
    limit = sys.get_int_max_str_digits()
    report, _ = run_json(capsys, ["converge", "--spec", literal, "--depth", "1",
                                  "--nmax", "8", "--window", "4"])
    assert report["results"]["spec"] == literal.replace("1e-5000", "1/1" + "0" * 5000)
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("argv", [
    ["classify-l1", "1e-1000000000"],
    ["converge", "--spec", "geom:1e-1000000000", "--depth", "1"],
    ["anti-uniform", "alpha:[1/2,1e-1000000000]"],
    ["counterexample", "2", "--epsilon", "1e-1000000000"],
    ["analyze", "file:{}"],
], ids=lambda argv: argv[0])
def test_exponent_past_its_cap_exits_2_at_once(capsys, tmp_path, argv):
    path = tmp_path / "dist.txt"
    path.write_text("1/2\n1/4\n1E-1_000_000_000\n", encoding="utf-8")
    start = time.perf_counter()
    assert run([arg.format(path) for arg in argv]) == 2
    assert time.perf_counter() - start < 1.0
    assert "exceeds the limit" in capsys.readouterr().err


@pytest.mark.parametrize("argv, bits", [
    (["converge", "--spec", "geom:1e-100000", "--depth", "2", "--nmax", "64"], 21260352),
    (["anti-uniform", "alpha:[1/2,1e-100000]"], 16609652),
    (["analyze", "geom:1e-100000", "--truncate", "8"], 2657544),
], ids=["converge", "anti-uniform", "analyze"])
def test_denominator_past_its_cap_exits_2_at_once(capsys, argv, bits):
    # each literal is under the exponent cap, but the source's terms built
    # from it would need a denominator of millions of bits
    start = time.perf_counter()
    assert run(argv) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"up to {bits} bits" in err
    assert "exceeds the limit of 262144 bits" in err


@pytest.mark.parametrize("literal, message", [
    ("alpha:[3/7,,9/20]", "cannot parse rational ''"),
    ("alpha:[3/7,9/20,]", "cannot parse rational ''"),
    ("alpha:[,3/7]", "cannot parse rational ''"),
    ("alpha:[3/7, ,9/20]", "cannot parse rational ' '"),
    ("alpha:[]", "alpha literal needs at least one ratio"),
    ("alpha:[ ]", "alpha literal needs at least one ratio"),
    ("alpha:2/5", "alpha literal must look like alpha:[a/b,...]"),
    ("alpha:[2/5", "alpha literal must look like alpha:[a/b,...]"),
    ("geo:1/4", "unrecognized source"),
    # what ExplicitHead.literal() prints: no command reads it back
    (ExplicitHead((F(1, 2),), F(1, 2)).literal(), "unrecognized source"),
])
def test_blank_alpha_entry_is_input_error(capsys, literal, message):
    for argv in (["anti-uniform", literal], ["converge", "--spec", literal, "--depth", "1"]):
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize("argv", [
    ["analyze", "geom:1/4", "--truncate", "4097"],
    ["delta", "geom:1/4", "--truncate", "4097"],
    ["anti-uniform", "alpha:[2/5]", "--depth", "4097"],
    ["coverage-sum", "--terms", "513"],
], ids=lambda argv: argv[0])
def test_knob_past_its_cap_exits_2_at_once(capsys, argv):
    start = time.perf_counter()
    assert run(argv) == 2
    assert time.perf_counter() - start < 1.0
    assert "exceeds the limit" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "delta"])
def test_render_past_its_cap_exits_2_at_once(capsys, command):
    # within the denominator cap (2**18 bits at n = 1024), but rendering
    # the weights of this truncation took 285 s
    start = time.perf_counter()
    assert run([command, f"geom:1/{2**255}", "--truncate", "1024"]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        f"error: rendering the truncation to n = 1024 needs up to {1024 * 2**36} squared-bit "
        f"operations, which exceeds the limit of {cli.MAX_RENDER_WORK}\n")


def test_render_cap_is_checked_on_the_denominator_bound(capsys, monkeypatch):
    # the cap admits the largest truncation the tests and the README
    # render; geom:1/4 has 3 bits per term
    assert cli._check_render_work(parse_source("alpha:[3/7,2/5,9/20]"), 4096) == 4096 * 20476**2
    argv = ["delta", "geom:1/4", "--truncate", "64"]
    monkeypatch.setattr(cli, "MAX_RENDER_WORK", 64 * 192**2)
    run_json(capsys, argv)
    monkeypatch.setattr(cli, "MAX_RENDER_WORK", 64 * 192**2 - 1)
    assert run(argv) == 2
    assert "exceeds the limit of" in capsys.readouterr().err


@pytest.mark.parametrize("argv, name", [
    (["converge", "--spec", "geom:1/4", "--depth", "1", "--nmax", "4096", "--window", "0"],
     "window"),
    (["converge", "--spec", "geom:1/4", "--depth", "1", "--nmax", "1"], "n_max"),
    (["converge", "--spec", "geom:1/4", "--depth", "1", "--nmax", "4097"], "n_max"),
], ids=["window-0", "nmax-1", "nmax-4097"])
def test_converge_range_exits_2_before_the_sweep(capsys, argv, name):
    start = time.perf_counter()
    assert run(argv) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith(f"error: {name} must be in")


@pytest.mark.parametrize("argv", [
    ["analyze", "file:{}"],
    ["oracle", "{}"],
    ["anti-uniform", "file:{}"],
], ids=lambda argv: argv[0])
def test_non_utf8_file_is_input_error(capsys, tmp_path, argv):
    path = tmp_path / "dist.txt"
    path.write_bytes(b"\xff1/2\n1/2\n")
    assert run([arg.format(path) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not UTF-8 text")
    assert "Traceback" not in err


def test_byte_order_mark_is_skipped(capsys, tmp_path, dist_file):
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbf" + Path(dist_file).read_bytes())
    report, _ = run_json(capsys, ["analyze", f"file:{path}"])
    plain, _ = run_json(capsys, ["analyze", f"file:{dist_file}"])
    assert report["results"] == plain["results"]
    assert report["results"]["probs"] == ["2/5", "3/10", "1/5", "1/10"]


def test_closed_stdout_exits_1_without_a_traceback(dist_file):
    proc = subprocess.Popen(
        [sys.executable, "-m", "prefixcode.cli", "delta", f"file:{dist_file}"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()  # before the report is written
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


@pytest.mark.parametrize("lines", [
    "1/2\n1e-5000\n",  # NotNormalizedError
    "1e-5000\n1/2\n",  # NotSortedError
])
def test_huge_rational_in_a_bad_file_is_input_error(capsys, tmp_path, lines):
    path = tmp_path / "dist.txt"
    path.write_text(lines, encoding="utf-8")
    assert run(["analyze", f"file:{path}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "1" + "0" * 5000 in err


class TestDelta:
    def test_found(self, capsys, dist_file):
        report, _ = run_json(capsys, ["delta", f"file:{dist_file}"])
        assert report["results"]["kind"] == "FOUND"
        assert report["results"]["delta"] == 1
        assert report["results"]["state"] == ["2/5", "3/10", "3/10"]
        assert report["results"]["l1_floor_log2"] == 1


@pytest.mark.parametrize("command", ["analyze", "delta"])
def test_truncate_of_a_file_source_rejected(capsys, dist_file, tmp_path, command):
    # refused before the file is read: a missing, an empty or a malformed
    # file gets the same message as a valid one
    (tmp_path / "empty.txt").write_text("", encoding="utf-8")
    (tmp_path / "malformed.txt").write_text("1/2\nhalf\n", encoding="utf-8")
    for path in (dist_file, tmp_path / "missing.txt", tmp_path / "empty.txt",
                 tmp_path / "malformed.txt"):
        assert run([command, f"file:{path}", "--truncate", "3"]) == 2
        assert capsys.readouterr().err == (
            "error: --truncate only applies to infinite source literals\n")


@pytest.mark.parametrize("depth, message", [
    ("-5", "depth must be >= 1, got -5"),
    ("0", "depth must be >= 1, got 0"),
    ("4097", "depth 4097 exceeds the limit 4096"),
])
def test_anti_uniform_depth_checked_before_the_source_is_read(capsys, dist_file, tmp_path,
                                                               depth, message):
    # in both modes: a file source (valid or missing) and an infinite literal
    for source in (f"file:{dist_file}", f"file:{tmp_path / 'missing.txt'}", "geom:1/4"):
        assert run(["anti-uniform", source, "--depth", depth]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_max_len_without_count_only_rejected(capsys, dist_file, tmp_path):
    # refused before the file is read, so a missing file gets the same message
    for path in (dist_file, tmp_path / "missing.txt"):
        assert run(["oracle", str(path), "--max-len", "3"]) == 2
        assert capsys.readouterr().err == "error: --max-len only applies with --count-only\n"


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

    def test_max_len_past_n_minus_one(self, capsys, dist_file):
        report, _ = run_json(capsys, ["oracle", dist_file, "--count-only", "--max-len", "3000"])
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

    @pytest.mark.parametrize("spec, depth, nmax", [
        ("geom:1/2", 16, 40),  # rows for n < 16 are shorter than --depth
        ("geom:1/4", 16, 96),
        ("alpha:[3/7,2/5,9/20]", 16, 96),
    ])
    def test_csv_file_is_the_reference_rows(self, capsys, tmp_path, spec, depth, nmax):
        csv_path = tmp_path / "series.csv"
        run_json(capsys, ["converge", "--spec", spec, "--depth", str(depth),
                          "--nmax", str(nmax), "--window", "8", "--csv", str(csv_path)])
        # each truncation coded on its own, rendered by the first-written rows
        source = parse_source(spec)
        seq = [huffman_lengths(truncate(source, n))[:depth] for n in range(2, nmax + 1)]
        assert csv_path.read_bytes() == _reference_csv_text(seq, depth).encode()

    def test_sweep_past_the_work_cap_exits_2(self, capsys):
        # within the denominator cap, but no merge is shared across
        # truncations: about 35 s of sweep before the cap
        ratio = f"geom:1/{2**255}"
        assert run(["converge", "--spec", ratio, "--depth", "16", "--nmax", "1024"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the sweep to n = 1024 needs up to ")
        assert "bit-merges, which exceeds the limit of" in err

    def test_csv_reuses_the_report_sweep(self, capsys, tmp_path, monkeypatch):
        sweeps, coded = [], []
        tail_depths = kernel.tail_depths

        def counting(nums, *args, **kwargs):
            sweeps.append(len(nums))
            for depths in tail_depths(nums, *args, **kwargs):
                coded.append(depths)
                yield depths

        monkeypatch.setattr(kernel, "tail_depths", counting)
        run_json(
            capsys,
            ["converge", "--spec", "geom:1/4", "--depth", "2", "--nmax", "48",
             "--window", "8", "--csv", str(tmp_path / "series.csv")],
        )
        # geom:1/4 is geometric from p_1, so every n = 2..48 comes from one
        # frontier sweep over the n = 48 prefix, nmax - 1 truncations in all
        assert sweeps == [48]
        assert len(coded) == 47

    def test_finite_source_rejected(self, capsys, dist_file, tmp_path):
        # refused before the file is read: a missing, an empty or a
        # malformed file gets the same message as a valid one
        (tmp_path / "empty.txt").write_text("", encoding="utf-8")
        (tmp_path / "malformed.txt").write_text("1/2\nhalf\n", encoding="utf-8")
        for path in (dist_file, tmp_path / "missing.txt", tmp_path / "empty.txt",
                     tmp_path / "malformed.txt"):
            assert run(["converge", "--spec", f"file:{path}", "--depth", "1"]) == 2
            assert capsys.readouterr().err == (
                "error: converge needs an infinite source literal (geom:/alpha:)\n")

    @pytest.mark.parametrize("argv, window", [
        (["--spec", "geom:1/4", "--depth", "1", "--nmax", "3", "--window", "2"], "2..3"),
        (["--spec", "geom:1/8", "--depth", "1", "--nmax", "8", "--window", "4"], "5..8"),
    ])
    def test_window_before_the_certified_interval_exits_2(self, capsys, argv, window):
        # the window's truncations have their own p1/S_n outside the
        # certified interval, so their l_1 contradicts nothing
        assert run(["converge", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: window n = {window} is too early")
        assert err.rstrip().endswith("raise --nmax")

    def test_contradicting_kernel_exits_1(self, capsys, monkeypatch):
        tail_depths = kernel.tail_depths
        monkeypatch.setattr(kernel, "tail_depths",
                            lambda *args: ([x + 1 for x in depths]
                                           for depths in tail_depths(*args)))
        assert run(["converge", "--spec", "geom:1/4", "--depth", "1", "--nmax", "64",
                    "--window", "16"]) == 1
        assert "symbol 1: observed 3 contradicts certified 2" in capsys.readouterr().err


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


def outcomes(capsys, argvs):
    """(exit code, stdout, stderr) of each command, run in turn in this process."""
    result = []
    for argv in argvs:
        code = run(argv)
        result.append((code, *capsys.readouterr()))
    return result


class TestParserReuse:
    @pytest.mark.parametrize("first, second", [
        (["--quiet", "coverage-sum", "--terms", "2"], ["coverage-sum", "--terms", "2"]),
        (["delta", "--truncate"], ["delta", "file:{dist}"]),
        (["analyze", "file:{dist}", "--depth", "3"], ["classify-l1", "2/9"]),
        (["--help"], ["delta", "file:{dist}"]),
        (["converge", "--help"], ["coverage-sum"]),
        (["analyze", "file:{dist}", "--trace", "{tmp}/t.jsonl"], ["analyze", "file:{dist}"]),
        (["anti-uniform", "geom:1/2", "--depth", "7"], ["anti-uniform", "geom:1/2"]),
    ])
    def test_second_command_answers_as_on_a_fresh_parser(
            self, capsys, monkeypatch, dist_file, tmp_path, first, second):
        argvs = [[a.format(dist=dist_file, tmp=tmp_path) for a in argv]
                 for argv in (first, second)]
        fresh = []
        for argv in argvs:
            monkeypatch.setattr(cli, "_parser", None)
            fresh += outcomes(capsys, [argv])
        monkeypatch.setattr(cli, "_parser", None)
        assert outcomes(capsys, argvs) == fresh
        assert fresh[0][:2] != fresh[1][:2]

    def test_help_reads_the_terminal_width_when_printed(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_parser", None)
        helps = []
        for columns in ("60", "120"):
            monkeypatch.setenv("COLUMNS", columns)
            assert run(["--help"]) == 0
            helps.append(capsys.readouterr().out)
            assert helps[-1] == cli.build_parser().format_help()
        assert helps[0] != helps[1]

    def test_one_parser_per_process(self, capsys, monkeypatch):
        build, calls = cli.build_parser, []
        monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build())
        monkeypatch.setattr(cli, "_parser", None)
        for argv in (["coverage-sum", "--terms", "2"], ["frobnicate"], ["classify-l1", "1/3"]):
            run(argv)
            run(argv)
        assert len(calls) == 1


# every escape class json.encoder tells apart: quote, backslash, control
# characters, DEL, non-ASCII, line separators and an astral character
_CHARS = 'az "\\/\x00\x1f\n\t\x7f\xe9\u20ac\u2028\U0001f600'


def _random_value(rng, depth):
    """A value of the types a report holds, containers nested up to ``depth``."""
    kind = rng.randrange(9 if depth else 5)
    if kind == 0:
        return rng.choice([True, False, None])
    if kind == 1:
        return rng.choice([-1, 1]) * rng.randrange(10 ** rng.choice([1, 30, 4301]))
    if kind in (2, 3):
        return "".join(rng.choice(_CHARS) for _ in range(rng.randrange(8)))
    if kind == 4:  # flat, one item type each
        item = [lambda: rng.randint(-99, 99), lambda: rng.choice(_CHARS),
                lambda: rng.random() < 0.5][rng.randrange(3)]
        return [item() for _ in range(rng.randrange(6))]
    if kind in (5, 6):
        return [_random_value(rng, depth - 1) for _ in range(rng.randrange(5))]
    return {"".join(rng.choices(_CHARS, k=rng.randrange(4))) + str(i):
            _random_value(rng, depth - 1) for i in range(rng.randrange(5))}


def _outcome(render, *args, **kwargs):
    try:
        return render(*args, **kwargs)
    except ValueError as exc:  # past the int-to-str digit limit
        return type(exc), str(exc)


class TestRenderReport:
    @pytest.mark.parametrize("digits", [4300, 0])
    def test_random_reports_render_as_json_does(self, rng, digits):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(digits)
        try:
            for _ in range(300):
                results = _random_value(rng, 4)
                report = {"command": "x", "inputs": {}, "results": results,
                          "provenance": cli.PROVENANCE}
                assert (_outcome(cli.render_report, "x", {}, results, False)
                        == _outcome(json.dumps, report, indent=2))
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("value", [0.5, (1, 2), F(1, 2), {1: "a"}, {"a": [1, {2}]}])
    def test_unsupported_type_raises_type_error(self, value):
        with pytest.raises(TypeError):
            cli.render_report("x", {}, {"v": value}, False)
