"""Seeded inputs, command passes and independent output checks.

Every workload is a closed loop over one *pass*: a fixed list of CLI
commands that the benchmark repeats until its time is up.  Throughput is
taken over the pass's mix (see ``run.throughput``), so every run of a
workload measures the same mix whatever its length.

Every pass issues the same commands on the same inputs: random inputs
come from a fixed universe, instance ``i`` of size ``n`` drawn from its own
seed string, so every command has a stdout digest recorded at the seed
commit (``digests.json``).  The run seed sets where in the pass's cycle a
run starts, so different seeds issue the same work from different points
and differ only by the machine's noise, not by how costly the instances
they drew are.  The cycle itself stays fixed: reordering it moved analyze's
peak RSS by 10% between seeds, as each large trace lands on a different
heap.

Why these workloads (the layer each one stresses is the one an
optimization of that layer must move, and the others must not):

* ``converge`` - truncation sweeps at n_max = 512: source generation,
  renormalization and ``FiniteDistribution`` validation on bigint weights,
  plus the second full sweep that ``--csv`` runs.
* ``analyze`` - full analysis at n = 128..320 with and without ``--trace``:
  ``MergeState`` trace materialization, written and thrown away.
* ``certify`` - tiny random sources, n = 12..14, through oracle, analyze,
  delta and classify-l1: the oracle enumeration and the fixed cost of each
  command (parse, payload, render).
* ``large-n`` - delta and anti-uniform on random small-int weights,
  n = 1024..4096: the merge kernel and file parsing.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

# Placeholder for the run's work directory, in argv and in recorded stdout.
WORK = "<WORK>"

CONVERGE_SPECS = ("geom:1/4", "alpha:[3/7,2/5,9/20]")
ANALYZE_SIZES = (128, 192, 256, 320)
ANALYZE_SPECS = ("geom:1/4", "alpha:[2/5]")
ANALYZE_FILES = 3  # random-weight files per size
CERTIFY_SIZES = (12, 13, 14)
CERTIFY_FILES = 64  # random-weight files per size
LARGE_SIZES = (1024, 2048, 4096)
LARGE_FILES = 16  # random-weight files per size

WORKLOADS = ("converge", "analyze", "certify", "large-n")


@dataclass(frozen=True)
class Op:
    """One CLI command; ``argv`` paths start with ``WORK``."""

    argv: tuple[str, ...]
    output: str | None = None  # trace or CSV file the command writes
    check: str | None = None  # independent check applied to its report
    instance: str | None = None  # input file the check reads weights from

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass
class Plan:
    """A workload's pass: ``units`` of commands that stay together when the
    pass is reordered, and the input files they read."""

    units: list[list[Op]] = field(default_factory=list)
    files: dict[str, list[int]] = field(default_factory=dict)  # name -> weights

    @property
    def ops(self) -> list[Op]:
        return [op for unit in self.units for op in unit]


def random_weights(kind: str, n: int, index: int, high: int) -> list[int]:
    """Non-increasing positive integer weights of universe instance ``index``."""
    rng = random.Random(f"{kind}:{n}:{index}")
    return sorted((rng.randint(1, high) for _ in range(n)), reverse=True)


def _file(plan: Plan, kind: str, n: int, index: int, high: int) -> str:
    name = f"{kind}/n{n}_i{index:03d}.txt"
    plan.files[name] = random_weights(kind, n, index, high)
    return name


def _converge() -> Plan:
    # --csv rides on every other op
    csv = f"{WORK}/converge.csv"
    common = ("--depth", "16", "--nmax", "512", "--window", "32")
    return Plan([
        [Op(("converge", "--spec", CONVERGE_SPECS[0], *common, "--csv", csv),
            output="converge.csv")],
        [Op(("converge", "--spec", CONVERGE_SPECS[1], *common))],
    ])


def _analyze() -> Plan:
    plan = Plan()
    for traced in (False, True):
        extra = ("--trace", f"{WORK}/trace.jsonl") if traced else ()
        output = "trace.jsonl" if traced else None
        for n in ANALYZE_SIZES:
            for spec in ANALYZE_SPECS:
                plan.units.append([Op(("analyze", spec, "--truncate", str(n), *extra),
                                      output=output, check="kraft")])
            for index in range(ANALYZE_FILES):
                name = _file(plan, "analyze", n, index, 10**6)
                plan.units.append([Op(("analyze", f"file:{WORK}/{name}", *extra),
                                      output=output, check="kraft", instance=name)])
    return plan


def _certify() -> Plan:
    # an instance's four commands stay in order: analyze is checked
    # against the oracle run just before it
    plan = Plan()
    for n in CERTIFY_SIZES:
        for index in range(CERTIFY_FILES):
            name = _file(plan, "certify", n, index, 2**16)
            weights = plan.files[name]
            path = f"{WORK}/{name}"
            plan.units.append([
                Op(("oracle", path), check="oracle", instance=name),
                Op(("analyze", f"file:{path}"), check="kraft+oracle", instance=name),
                Op(("delta", f"file:{path}")),
                Op(("classify-l1", str(Fraction(weights[0], sum(weights))))),
            ])
    return plan


def _large_n() -> Plan:
    plan = Plan()
    for n in LARGE_SIZES:
        for index in range(LARGE_FILES):
            name = _file(plan, "large", n, index, 10**6)
            path = f"file:{WORK}/{name}"
            plan.units += [[Op(("delta", path))],
                           [Op(("anti-uniform", path), check="anti-uniform", instance=name)]]
    return plan


_BUILDERS = {"converge": _converge, "analyze": _analyze,
             "certify": _certify, "large-n": _large_n}


def universe(workload: str) -> Plan:
    """The workload's pass in its canonical order."""
    return _BUILDERS[workload]()


def plan(workload: str, seed: int) -> Plan:
    """The pass a run with this seed repeats: the universe, started at a
    unit drawn from the seed."""
    result = universe(workload)
    start = random.Random(seed).randrange(len(result.units))
    result.units = result.units[start:] + result.units[:start]
    return result


def write_inputs(plan: Plan, work: Path) -> None:
    """Write each input file as one exact "w/W" rational per line."""
    work.mkdir(parents=True, exist_ok=True)
    for name, weights in plan.files.items():
        path = work / name
        path.parent.mkdir(parents=True, exist_ok=True)
        total = sum(weights)
        path.write_text("".join(f"{w}/{total}\n" for w in weights), encoding="utf-8")


# -- independent checks: integer arithmetic only, no prefixcode code ----------


def kraft_exact(lengths: list[int]) -> bool:
    """sum(2**-l) == 1, decided in integers."""
    deepest = max(lengths)
    return sum(1 << (deepest - l) for l in lengths) == 1 << deepest


def anti_uniform_reference(weights: list[int]) -> tuple[int, int, int] | None:
    """First 1-based i <= n-3 with w_{i+2} + ... + w_n > w_i, as
    (i, tail, w_i); None when the suffix-sum condition holds everywhere."""
    n = len(weights)
    suffix = [0] * (n + 1)
    for j in range(n - 1, -1, -1):
        suffix[j] = suffix[j + 1] + weights[j]
    for i in range(1, n - 2):
        if suffix[i + 1] > weights[i - 1]:
            return i, suffix[i + 1], weights[i - 1]
    return None


class Checker:
    """Applies each op's independent check to its parsed ``results``."""

    def __init__(self, plan: Plan):
        self.files = plan.files
        self.oracle: dict[str, dict] = {}  # instance -> last oracle results

    def __call__(self, op: Op, results: dict) -> str | None:
        if op.check is None:
            return None
        if op.check == "oracle":
            self.oracle[op.instance] = results
            if not all(kraft_exact(v) for v in results["vectors"]):
                return "oracle vector with Kraft sum != 1"
            return None
        if op.check == "anti-uniform":
            return self._anti_uniform(op, results)
        lengths = results["lengths"]
        if not kraft_exact(lengths):
            return "analyze lengths with Kraft sum != 1"
        if op.check == "kraft+oracle":
            oracle = self.oracle.get(op.instance)
            if oracle is None:
                return "analyze ran before its oracle"
            if results["expected_length"] != oracle["optimum"]:
                return "analyze expected_length differs from the oracle optimum"
            if lengths not in oracle["vectors"]:
                return "analyze lengths are not among the oracle's optimal vectors"
        return None

    def _anti_uniform(self, op: Op, results: dict) -> str | None:
        weights = self.files[op.instance]
        total = sum(weights)
        ref = anti_uniform_reference(weights)
        if results["holds"] != (ref is None):
            return "anti-uniform verdict differs from the suffix-sum recomputation"
        if ref is not None:
            i, tail, w_i = ref
            witness = {"tail_sum": str(Fraction(tail, total)),
                       "p_i": str(Fraction(w_i, total))}
            if results["first_violation"] != i or results["witness"] != witness:
                return "anti-uniform violation differs from the recomputation"
        return None


def output_digest(stdout: str, work: Path, output: str | None) -> str:
    """SHA-256 of the stdout with the work directory normalized, plus that of
    the trace or CSV file the command wrote, which is then removed so the
    next command cannot pass on a stale file."""
    digests = [hashlib.sha256(stdout.replace(str(work), WORK).encode()).hexdigest()]
    if output is not None:
        path = work / output
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        path.unlink()
    return " ".join(digests)
