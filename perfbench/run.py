"""End-to-end and per-layer benchmark of the prefixcode CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop client in this single-threaded process issues a workload's
commands through ``prefixcode.cli.run(argv)``, the next only after the
previous returns, with stdout captured.  It repeats the workload's pass
(see ``workloads.py``) until ``--seconds`` have elapsed, and checks every
output against the digest recorded at the seed commit and against
independent integer checks.  A command fails on a nonzero exit, a digest
mismatch or a failed check.

End-to-end metrics:

* ``ops_per_s_norm`` - commands per second over the pass's mix, and
  ``latency_p50_norm_ms`` - the median command latency over the pass's
  positions; both scaled to a fixed machine speed by the host-speed
  reference timed in between the commands (see ``hostspeed.py``);
* ``peak_rss_mb`` - ``ru_maxrss`` of this process;
* ``setup_s`` - the median, over several set-up processes, of the time
  each takes to import prefixcode and write the seeded input files, scaled
  the same way.

The same figures as measured (``ops_per_s``, ``latency_p50_ms``,
``setup_raw_s``), the tail latency and fail_ratio are printed and written
to the report; BENCHMARK.json leaves them out because on a shared host
they spread past the 25% bound between runs, converge gives too few
commands per run for a tail, and ``attempted``/``failed`` already carry
fail_ratio.

With ``--trace 1`` the untraced loop is followed by two traced passes (see
``tracing.py``), whose layer self times, calls and counts are reported;
counts that differ between the two passes are a harness bug.  The traced
passes run under the same sampler, and their spans on a clock that stops
while it runs, so ``tracing.overhead`` compares like with like.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The full report, and the spans of a traced run, are written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import hostspeed
import workloads
from tracing import COUNTS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 21
TAIL_BEYOND = 10  # samples a tail percentile must leave beyond it
UNITS = {"ops_per_s_norm": "1/s", "latency_p50_norm_ms": "ms", "peak_rss_mb": "MiB",
         "setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms", "setup_raw_s": "s",
         "reference_ms": "ms"}


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least TAIL_BEYOND samples beyond it, as
    (percentile, value); None below 2 * TAIL_BEYOND samples."""
    n = len(samples)
    if n < 2 * TAIL_BEYOND:
        return None
    rank = n - TAIL_BEYOND  # nearest rank: samples[rank - 1] leaves n - rank beyond
    return 100.0 * rank / n, sorted(samples)[rank - 1]


class Runner:
    """Issues commands and verifies each output."""

    def __init__(self, cli_run, plan: workloads.Plan, work: Path, digests: dict):
        self.cli_run = cli_run
        self.work = work
        self.digests = digests
        self.checker = workloads.Checker(plan)
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.sampler: hostspeed.Sampler | None = None  # its handler time is not the command's
        self.timed: list[tuple[float, float, float]] = []  # (start, end, latency) per command

    def run(self, op: workloads.Op, tracer: Tracer | None = None) -> None:
        argv = [a.replace(workloads.WORK, str(self.work)) for a in op.argv]
        out, err = io.StringIO(), io.StringIO()
        spent = self.sampler.spent if self.sampler else 0.0
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            code = tracer.run_op(self.cli_run, argv) if tracer else self.cli_run(argv)
            end = time.perf_counter()
        latency = end - start
        if self.sampler:
            latency -= self.sampler.spent - spent
        self.timed.append((start, end, latency))
        self.attempted += 1
        problem = self.verify(op, code, out.getvalue(), err.getvalue())
        if problem is not None:
            self.failures.append((op.key, problem))

    def verify(self, op, code: int, stdout: str, stderr: str) -> str | None:
        if code != 0:
            return f"exit {code}: {stderr.strip()[-200:]}"
        try:
            digest = workloads.output_digest(stdout, self.work, op.output)
        except OSError as exc:
            return f"output file: {exc}"
        if digest != self.digests.get(op.key):
            return "output digest differs from the seed commit"
        return self.checker(op, json.loads(stdout)["results"])


def closed_loop(runner: Runner, plan: workloads.Plan, seconds: float = 0.0,
                passes: int | None = None, tracer: Tracer | None = None) -> None:
    """Repeat the pass, one command at a time.  Without ``passes`` it stops
    at the first command boundary after ``seconds``, once every command of
    the pass has run; with ``passes`` it runs exactly that many whole
    passes."""
    ops = plan.ops
    start = time.perf_counter()
    done = 0
    while True:
        position = done % len(ops)
        if position == 0 and tracer is not None:
            tracer.start_pass()
        runner.run(ops[position], tracer)
        done += 1
        if passes is None:
            if done >= len(ops) and time.perf_counter() - start >= seconds:
                return
        elif done == passes * len(ops):
            return


def measure_setup(workload: str, seed: int, work: Path) -> tuple[float, float]:
    """Median seconds a fresh process takes to import prefixcode and write
    the seeded inputs (interpreter start-up is not the program's), as
    measured and at the reference speed."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        setup, reference = map(float, subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed), str(work)],
            check=True, capture_output=True, text=True).stdout.split())
        raw.append(setup)
        scaled.append(hostspeed.scale(setup, reference))
    return statistics.median(raw), statistics.median(scaled)


def sampled_loop(runner: Runner, plan: workloads.Plan, tracer: Tracer | None = None,
                 **loop) -> tuple[list[list[float]], list[list[float]], hostspeed.Sampler]:
    """``closed_loop`` under the host-speed sampler.  Returns each position's
    latencies as measured and scaled to the reference speed, and the
    sampler.  A tracer's spans run on a clock that stops in the sampler."""
    first = len(runner.timed)
    with hostspeed.Sampler() as sampler:
        runner.sampler = sampler
        if tracer is not None:
            tracer.clock = sampler.clock
            tracer.install()
        try:
            closed_loop(runner, plan, tracer=tracer, **loop)
        finally:
            if tracer is not None:
                tracer.uninstall()
            runner.sampler = None
    by_position: list[list[float]] = [[] for _ in plan.ops]
    scaled: list[list[float]] = [[] for _ in plan.ops]
    for index, (start, end, latency) in enumerate(runner.timed[first:]):
        by_position[index % len(by_position)].append(latency)
        scaled[index % len(scaled)].append(
            hostspeed.scale(latency, sampler.reference_near(start, end)))
    return by_position, scaled, sampler


def median_latency(by_position: list[list[float]]) -> float:
    """Median over the pass's positions of each position's median latency,
    so a run that ends inside a pass keeps the pass's mix."""
    return statistics.median(statistics.median(ls) for ls in by_position)


def throughput(by_position: list[list[float]]) -> float:
    """Commands per second over the pass's fixed mix: the pass length over
    the sum of each position's mean latency.  Means over the whole run
    average the machine's fast and slow spells, and weighting each position
    once keeps a run that ends inside a pass on the same mix."""
    return len(by_position) / sum(statistics.fmean(ls) for ls in by_position)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Benchmark the prefixcode CLI.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    contract = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "prefixcode" / "cli.py").is_file() or not contract.is_file():
        print("error: run from a checkout holding src/prefixcode and BENCHMARK.json",
              file=sys.stderr)
        return 2
    plan = workloads.plan(args.workload, args.seed)
    work = OUT / f"work-{os.getpid()}"
    try:
        return _benchmark(args, json.loads(contract.read_text()), plan, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _benchmark(args, contract: dict, plan: workloads.Plan, work: Path) -> int:
    setup_raw_s, setup_s = measure_setup(args.workload, args.seed, work)
    sys.path.insert(0, str(ROOT / "src"))
    from prefixcode import cli

    digests = json.loads((HERE / "digests.json").read_text())
    runner = Runner(cli.run, plan, work, digests)
    by_position, scaled, sampler = sampled_loop(runner, plan, seconds=args.seconds)
    latencies = [latency for ls in by_position for latency in ls]
    tail = tail_percentile(latencies)
    report = {
        "workload": args.workload, "seed": args.seed, "ops_per_pass": len(plan.ops),
        "passes": len(latencies) / len(plan.ops),
        "end_to_end": {
            "ops_per_s_norm": throughput(scaled),
            "latency_p50_norm_ms": 1e3 * median_latency(scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_s,
            "ops_per_s": throughput(by_position),
            "latency_p50_ms": 1e3 * median_latency(by_position),
            "setup_raw_s": setup_raw_s,
            "reference_ms": 1e3 * sampler.reference_s(),
        },
        "reference_samples": len(sampler.samples),
        "latency_tail": (None if tail is None else
                         {"percentile": tail[0], "ms": 1e3 * tail[1], "samples": len(latencies)}),
    }
    harness_bugs = []
    if args.trace:
        tracer = Tracer()
        _, traced, _ = sampled_loop(runner, plan, tracer=tracer, passes=2)
        harness_bugs = tracer.counts_differ()
        report["per_layer"] = tracer.metrics()
        report["per_layer"]["tracing.overhead"] = (
            report["end_to_end"]["ops_per_s_norm"] / throughput(traced))
        with open(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", "w") as f:
            f.writelines(json.dumps(s) + "\n" for s in tracer.span_records())
    report.update(attempted=runner.attempted, failed=len(runner.failures),
                  fail_ratio=len(runner.failures) / runner.attempted,
                  failures=runner.failures[:20], harness_bugs=harness_bugs)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n")

    _print_summary(report)
    section = contract["per_layer" if args.trace else "end_to_end"]
    values = report["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": not runner.failures and not harness_bugs,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in section},
    }))
    return 0


def _print_summary(report: dict) -> None:
    print(f"{report['workload']} seed {report['seed']}: {report['passes']:.3g} passes of "
          f"{report['ops_per_pass']} commands, {report['attempted']} attempted, "
          f"{report['failed']} failed (fail_ratio {report['fail_ratio']:g})")
    for name, value in report["end_to_end"].items():
        print(f"  {name:<16} {value:.6g} {UNITS[name]}")
    tail = report["latency_tail"]
    if tail is None:
        print("  latency_tail_ms  omitted: fewer than 20 samples")
    else:
        print(f"  latency_tail_ms  {tail['ms']:.6g} ms at p{tail['percentile']:.4g} "
              f"of {tail['samples']} samples")
    layers = report.get("per_layer")
    if layers:
        op_ms = sum(v for k, v in layers.items() if k.endswith(".self_ms"))
        print(f"  traced op time {op_ms:.6g} ms; tracing overhead "
              f"{layers['tracing.overhead']:.4g}x; self time by layer:")
        for key in sorted((k for k in layers if k.endswith(".self_ms")),
                          key=layers.get, reverse=True):
            name = key[: -len(".self_ms")]
            calls = layers.get(f"{name}.calls", 1.0)
            print(f"    {name:<40} {layers[key]:10.4f} ms {100 * layers[key] / op_ms:5.1f}%"
                  f" {calls:10.2f} calls")
        for name in COUNTS:
            print(f"    {name:<40} {layers[name]:.6g}")
    for key, problem in report["failures"]:
        print(f"FAILED {key}: {problem}", file=sys.stderr)
    for name in report["harness_bugs"]:
        print(f"HARNESS BUG: count {name} differs between two passes", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
