"""Traced-run instrumentation: layer spans and exact counts.

Only a traced run installs these wrappers.  ``Tracer.install`` rebinds each
public function at every name its callers look up (module globals of the
``prefixcode`` modules, or the class attribute for methods) and
``uninstall`` restores the originals; no file of the program is touched.

Each call records a span (name, start, end, parent, op id) in memory; a
layer's self time is its span's duration minus the part covered by its
child spans.  The benchmark opens a ``cli.run`` span around each command,
so ``cli.run`` self time is the op time no layer span covers.

The layers, and the workload whose end-to-end throughput (ops_per_s_norm)
each should move:

* sources.*, distributions.*, convergence.* -> ``converge`` (near zero on
  certify and large-n);
* huffman.huffman, huffman.MergeState.init, huffman.huffman_lengths ->
  ``analyze``, also peak_rss_mb there (flat on converge);
* kernel.* -> ``large-n`` (must not regress on converge, the bigint
  regime; negligible on certify);
* fileio.* -> large-n and certify; delta.delta_occasion and
  antiuniform.check_finite -> large-n; intervals.classify_l1,
  oracle.optimal_lengths, cli.build_parser, cli.render_report and cli.run
  self -> certify.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict
from functools import wraps

# (span name, module, attribute path); a path with a dot names a method
TIMED = (
    ("sources.prefix_probs", "prefixcode.sources", "Geometric.prefix_probs"),
    ("sources.prefix_probs", "prefixcode.sources", "AlphaSequence.prefix_probs"),
    ("sources.prefix_probs", "prefixcode.sources", "ExplicitHead.prefix_probs"),
    ("sources.truncate", "prefixcode.sources", "truncate"),
    ("distributions.FiniteDistribution.init", "prefixcode.distributions",
     "FiniteDistribution.__post_init__"),
    ("distributions.common_numerators", "prefixcode.distributions",
     "FiniteDistribution.common_numerators"),
    ("convergence.truncation_sequence", "prefixcode.convergence", "truncation_sequence"),
    ("convergence.estimate_optimal_lengths", "prefixcode.convergence",
     "estimate_optimal_lengths"),
    ("huffman.huffman", "prefixcode.huffman", "huffman"),
    ("huffman.MergeState.init", "prefixcode.huffman", "MergeState.__post_init__"),
    ("huffman.huffman_lengths", "prefixcode.huffman", "huffman_lengths"),
    ("kernel.run_merges", "prefixcode.kernel", "run_merges"),
    ("kernel.state_after", "prefixcode.kernel", "state_after"),
    ("fileio.parse_source", "prefixcode.fileio", "parse_source"),
    ("fileio.read_distribution_file", "prefixcode.fileio", "read_distribution_file"),
    ("delta.delta_occasion", "prefixcode.delta", "delta_occasion"),
    ("antiuniform.check_finite", "prefixcode.antiuniform", "check_finite"),
    ("intervals.classify_l1", "prefixcode.intervals", "classify_l1"),
    ("oracle.optimal_lengths", "prefixcode.oracle", "optimal_lengths"),
    ("cli.build_parser", "prefixcode.cli", "build_parser"),
    ("cli.render_report", "prefixcode.cli", "render_report"),
)
LAYERS = tuple(dict.fromkeys(name for name, _, _ in TIMED))
ROOT = "cli.run"
COUNTS = ("kernel.merges", "kernel.replay_ratio", "huffman.trace_unused_ratio",
          "oracle.vectors_enumerated", "distributions.den_bits_max")

_ORIGINAL = "__perfbench_original__"


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "prefixcode" or name.startswith("prefixcode."))]


def installed_wrappers() -> list[str]:
    """Names in the program currently bound to a benchmark wrapper."""
    found = []
    for module in _package_modules():
        for attr, value in vars(module).items():
            if hasattr(value, _ORIGINAL):
                found.append(f"{module.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                found += [f"{module.__name__}.{attr}.{a}"
                          for a, v in vars(value).items() if hasattr(v, _ORIGINAL)]
    return found


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover.

    ``spans`` holds (name, start, end, parent index or -1, op id) tuples.
    """
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    result = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(end - start - covered)
    return result


class Tracer:
    """Spans and per-pass counters for one traced run."""

    def __init__(self):
        self.spans: list = []
        self.passes: list[Counter] = []
        self._stack: list[int] = []
        self._op = 0
        self._bindings: list = []  # (owner, attribute, original)
        self.clock = time.perf_counter

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self._op])
        self._stack.append(index)
        self.passes[-1][name] += 1
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._stack.pop()

    def run_op(self, call, *args):
        """Call the command under a root ``cli.run`` span."""
        self._op += 1
        index = self._open(ROOT)
        try:
            return call(*args)
        finally:
            self._close(index)

    def start_pass(self) -> None:
        self.passes.append(Counter())

    # -- wrappers ------------------------------------------------------------

    def _timed(self, name, fn, count=None):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                count(self.passes[-1], args, kwargs, result)
            return result

        setattr(wrapper, _ORIGINAL, fn)
        return wrapper

    def _counted_generator(self, fn, key):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.passes[-1][key] += 1
                yield item

        setattr(wrapper, _ORIGINAL, fn)
        return wrapper

    def _counted(self, fn, count):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(self.passes[-1], args, kwargs, result)
            return result

        setattr(wrapper, _ORIGINAL, fn)
        return wrapper

    def _rebind(self, module_name: str, path: str, make) -> None:
        owner = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[attr]
            self._bindings.append((cls, attr, original))
            setattr(cls, attr, make(original))
            return
        original = getattr(owner, path)
        wrapper = make(original)
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._bindings.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        for name, module, path in TIMED:
            self._rebind(module, path,
                         lambda fn, name=name: self._timed(name, fn, _COUNTERS.get(name)))
        self._rebind("prefixcode.huffman", "MergeTrace.json_lines",
                     lambda fn: self._counted(fn, _count_written_states))
        self._rebind("prefixcode.oracle", "enumerate_kraft_tight",
                     lambda fn: self._counted_generator(fn, "oracle.vectors_enumerated"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()

    # -- results -------------------------------------------------------------

    def counts_differ(self) -> list[str]:
        """Counters that differ between passes over the same commands."""
        first = self.passes[0]
        keys = set().union(*self.passes)
        return sorted(k for k in keys if any(p[k] != first[k] for p in self.passes))

    def metrics(self) -> dict[str, float]:
        """Per-op self time and calls of every layer, and the exact counts."""
        ops = sum(p[ROOT] for p in self.passes)
        self_total: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self_times(self.spans)):
            self_total[span[0]] += own
        total = sum(self.passes, Counter())
        out = {}
        for name in LAYERS:
            out[f"{name}.self_ms"] = 1e3 * self_total[name] / ops
            out[f"{name}.calls"] = total[name] / ops
        out[f"{ROOT}.self_ms"] = 1e3 * self_total[ROOT] / ops
        merges = total["kernel.merges"]
        built = total["huffman.MergeState.init"]
        out["kernel.merges"] = merges / ops
        out["kernel.replay_ratio"] = total["kernel.replayed"] / merges if merges else 0.0
        out["huffman.trace_unused_ratio"] = (
            (built - total["huffman.states_written"]) / built if built else 0.0)
        out["oracle.vectors_enumerated"] = total["oracle.vectors_enumerated"] / ops
        out["distributions.den_bits_max"] = max(p["distributions.den_bits_max"]
                                                for p in self.passes)
        return out

    def span_records(self):
        for name, start, end, parent, op in self.spans:
            yield {"name": name, "start": start, "end": end, "parent": parent, "op": op}


def _count_merges(counts, args, kwargs, result):
    counts["kernel.merges"] += len(args[0]) - 1


def _count_replayed(counts, args, kwargs, result):
    counts["kernel.replayed"] += args[1] if len(args) > 1 else kwargs["steps"]


def _count_den_bits(counts, args, kwargs, result):
    key = "distributions.den_bits_max"
    counts[key] = max(counts[key], result[1].bit_length())


def _count_written_states(counts, args, kwargs, result):
    # json_lines writes the states after merges 1..n-1, one per line
    counts["huffman.states_written"] += len(result)


_COUNTERS = {
    "kernel.run_merges": _count_merges,
    "kernel.state_after": _count_replayed,
    "distributions.common_numerators": _count_den_bits,
}
