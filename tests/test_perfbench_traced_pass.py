"""Two traced passes of the benchmark's commands run clean.

A traced benchmark run (``perfbench/run.py --trace 1``) installs the
tracer's wrappers and runs each workload's commands twice; an exception in
a wrapper or a counter, or a counter that differs between the passes, fails
that run.  The same passes run here on small inputs, one command of each
kind the workloads issue.
"""

import importlib.util
import json

from prefixcode import cli
from test_perfbench_names import _TRACING

_CONTRACT = _TRACING.parent.parent / "BENCHMARK.json"


def test_two_traced_passes_run_clean(capsys, tmp_path):
    dist = tmp_path / "n8.txt"
    dist.write_text("1/4\n1/5\n3/20\n1/8\n1/10\n3/40\n1/20\n1/20\n", encoding="utf-8")
    commands = [
        ["converge", "--spec", "geom:1/4", "--depth", "4", "--nmax", "64", "--window", "8",
         "--csv", str(tmp_path / "converge.csv")],
        ["analyze", "geom:1/4", "--truncate", "16", "--trace", str(tmp_path / "trace.jsonl")],
        ["delta", f"file:{dist}"],
        ["anti-uniform", f"file:{dist}"],
        ["oracle", str(dist)],
        ["classify-l1", "1/4"],
        # the sweep's S_n check, the denominator cap where the prefix is
        # built, and the infinite-tail test
        ["converge", "--spec", "alpha:[3/7,2/5,9/20]", "--depth", "4", "--nmax", "64",
         "--window", "8"],
        ["delta", "geom:1/4", "--truncate", "16"],
        ["anti-uniform", "alpha:[2/5]", "--depth", "8"],
    ]
    # run.py's untraced loop runs first, and builds the parser once for
    # the process
    for argv in commands:
        assert cli.run(argv) == 0, argv
    capsys.readouterr()
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for _ in range(2):
            tracer.start_pass()
            for argv in commands:
                assert tracer.run_op(cli.run, argv) == 0, argv
                capsys.readouterr()
    finally:
        tracer.uninstall()
    assert tracing.installed_wrappers() == []
    assert tracer.counts_differ() == []
    metrics = tracer.metrics()
    # run.py adds tracing.overhead, a ratio to the untraced loop, itself
    names = {m["name"] for m in json.loads(_CONTRACT.read_text())["per_layer"]}
    assert names - {"tracing.overhead"} <= metrics.keys()
    assert metrics["kernel.merges"] > 0 and metrics["huffman.huffman.calls"] > 0
