"""Self-tests of the benchmark harness: python3 -m pytest perfbench/tests"""

import importlib
import signal
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        ("cli.run", 0.0, 10.0, -1, 1),
        ("a", 1.0, 4.0, 0, 1),
        ("b", 2.0, 3.0, 1, 1),  # grandchild: counts against a, not the root
        ("c", 5.0, 9.0, 0, 1),
        ("cli.run", 10.0, 12.0, -1, 2),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 2.0]


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_percentile([1.0] * 19) is None
    assert run.tail_percentile([float(x) for x in range(1, 21)]) == (50.0, 10.0)
    percentile, value = run.tail_percentile([float(x) for x in range(1000, 0, -1)])
    assert (percentile, value) == (99.0, 990.0)


def test_tracer_rebinds_every_caller_name_and_restores_it():
    cli, convergence, huffman = (importlib.import_module(f"prefixcode.{name}")
                                 for name in ("cli", "convergence", "huffman"))
    original = huffman.huffman_lengths
    tracer = tracing.Tracer()
    tracer.install()
    try:
        installed = tracing.installed_wrappers()
        assert "prefixcode.convergence.huffman_lengths" in installed
        assert "prefixcode.cli.render_report" in installed
        assert "prefixcode.huffman.MergeState.__post_init__" in installed
        assert convergence.huffman_lengths is not original
    finally:
        tracer.uninstall()
    assert tracing.installed_wrappers() == []
    assert convergence.huffman_lengths is original
    assert cli.huffman is huffman.huffman


def test_untraced_run_installs_no_wrappers(monkeypatch, capsys):
    seen = []

    def refuse(self):
        raise AssertionError("an untraced run installed wrappers")

    def cli_run_spy(self, op, tracer=None):
        seen.append(tracing.installed_wrappers())
        return original_run(self, op, tracer)

    original_run = run.Runner.run
    monkeypatch.setattr(tracing.Tracer, "install", refuse)
    monkeypatch.setattr(run.Runner, "run", cli_run_spy)
    code = run.main(["--workload", "large-n", "--seed", "3", "--seconds", "0", "--trace", "0"])
    assert code == 0
    assert seen and all(found == [] for found in seen)
    assert '"correct": true' in capsys.readouterr().out.splitlines()[-1]


@pytest.mark.parametrize("weights, expected", [
    ([8, 4, 2, 1, 1], None),
    ([3, 3, 3, 3], (1, 6, 3)),
    ([10, 4, 3, 3, 2], (2, 5, 4)),
])
def test_anti_uniform_reference(weights, expected):
    assert workloads.anti_uniform_reference(weights) == expected


def test_kraft_exact():
    assert workloads.kraft_exact([1, 2, 3, 3])
    assert not workloads.kraft_exact([1, 2, 3])
    assert not workloads.kraft_exact([1, 1, 2])


def test_every_seed_runs_the_whole_universe_from_its_own_start():
    universe = workloads.universe("certify")
    first, second = workloads.plan("certify", 1), workloads.plan("certify", 2)
    assert sorted(op.key for op in first.ops) == sorted(op.key for op in universe.ops)
    assert [op.key for op in first.ops] != [op.key for op in second.ops]
    keys = [op.key for op in universe.ops]
    start = keys.index(first.ops[0].key)
    assert [op.key for op in first.ops] == keys[start:] + keys[:start]
    assert first.files == universe.files
    for unit in first.units:  # analyze is checked against the oracle just before it
        assert [op.argv[0] for op in unit] == ["oracle", "analyze", "delta", "classify-l1"]


def test_mix_metrics_weight_each_pass_position_once():
    # position 0 ran three times, position 1 once: a run cut inside a pass
    by_position = [[1.0, 1.0, 4.0], [3.0]]
    assert run.throughput(by_position) == 2 / (2.0 + 3.0)
    assert run.median_latency(by_position) == (1.0 + 3.0) / 2


def test_reference_scaling():
    reference_s = hostspeed.REFERENCE_MS / 1e3
    assert hostspeed.scale(2.0, reference_s) == 2.0
    assert hostspeed.scale(2.0, 2 * reference_s) == 1.0


def test_sampler_time_is_not_charged_to_commands():
    with hostspeed.Sampler() as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.2:
            pass
    assert len(sampler.samples) >= 3
    assert sampler.spent >= sum(sampler.samples)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
