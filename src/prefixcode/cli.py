"""Command-line front end.

Every subcommand prints one JSON report to stdout:

    {"command": ..., "inputs": ..., "results": ..., "provenance": ...}

Rationals are serialized as exact "a/b" strings; decimal renderings are
explicitly labeled and always accompany an exact value.  Exit codes: 0 on
success, 2 on input errors, 1 on internal invariant failure or when the
reader of stdout closes it early.

:func:`run` builds the argument parser on its first call and reuses it for
every later call in the process; argparse keeps no state between parses.
:func:`render_report` returns the string ``json.dumps(report, indent=2)``
returns, without json's pure-Python encoder, which ``indent`` selects.

``--trace PATH`` refuses a trace file over MAX_TRACE_BYTES before the
report is built, by the trace's ceiling, then its floor (from bit lengths,
then from the weights' shared gcd), then its exact size, each only when the
one before cannot decide.  A traced report takes its ``probs`` from the
trace's own rendering, and the file's lines are written from the trace's
line parts: each line's leading entries are a slice of one ASCII rendering
of the joined input weights.  An output path is used whenever it is given,
even when empty; a path that cannot be written exits 2.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from collections.abc import Sequence
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path

from prefixcode import __version__
from prefixcode.antiuniform import (
    alpha_criterion,
    check_depth,
    check_finite,
    check_infinite_tail,
)
from prefixcode.convergence import DEFAULT_NMAX, DEFAULT_WINDOW, estimate_optimal_lengths
from prefixcode.delta import DeltaKind, delta_occasion
from prefixcode.distributions import FiniteDistribution, counterexample
from prefixcode.errors import OutOfRangeError, PrefixCodeError, TailNotComputableError
from prefixcode.fileio import parse_source, read_distribution_file
from prefixcode.huffman import (
    RECORD_END,
    LengthVector,
    MergeTrace,
    canonical_codebook,
    expected_length,
    huffman,
    huffman_lengths,
    kraft_sum,
)
from prefixcode.intervals import L1Interval, classify_l1, coverage_sum
from prefixcode.numutil import (
    decimal_ceil, decimal_floor, decimal_str, exact_fraction, rat_str, weight_strs)
from prefixcode.oracle import count_kraft_tight, optimal_lengths
from prefixcode.sources import MAX_TRUNCATION, SourceSpec, check_denominator_bits, truncate

# the trace file grows as O(n**2): 300 MB for geom:1/4 at n = 800, and
# 40 GB at the truncation cap of 4096
MAX_TRACE_BYTES = 1 << 30

# bytes of trace lines gathered before each write of the file: smaller
# blocks cost more writes, and 1 MiB blocks added about 1 MiB of RSS and
# were no faster
TRACE_BLOCK_BYTES = 1 << 18

# the end of each trace line after its last state entry
_LINE_END = (RECORD_END + "\n").encode("ascii")

# Largest n * bits**2 of a truncation a report renders, with bits the bound
# of check_denominator_bits on its shared denominator: each of its n weights
# costs one str and one gcd, or at 65 to 4096 bits (numutil.SHARED_GCD_BITS)
# one product step of the shared gcd, each quadratic in the bits; near the
# cap the bits are past that range, so each weight takes a gcd.  The
# denominator cap alone admits a 2**-255 ratio at n = 1024, whose `delta
# --truncate` rendered for 285 s (7.0e13).  2**41, about 2.2e12, admits every
# truncation the tests, the benchmark and the README render; the largest,
# alpha:[3/7,2/5,9/20] at n = 4096, needs 1.7e12.  `analyze` renders the
# delta state's weights as well as `probs`, so at the cap it takes about
# twice as long as `delta` on the same truncation.
MAX_RENDER_WORK = 1 << 41

PROVENANCE = {
    "tool": f"prefixcode {__version__}",
    "ruleset": "standardized-merge/insert-before-equals",
}


def _resolve_finite(source: str, truncate_n: int | None) -> tuple[FiniteDistribution, dict]:
    """Parse a source argument down to a finite distribution."""
    if truncate_n is not None and source.strip().startswith("file:"):
        # refused before the file is read
        raise PrefixCodeError("--truncate only applies to infinite source literals")
    parsed = parse_source(source)
    inputs: dict = {"source": source}
    if isinstance(parsed, FiniteDistribution):
        return parsed, inputs
    if truncate_n is None:
        raise TailNotComputableError(
            "infinite source literal needs --truncate N to analyze a finite code"
        )
    inputs["truncate"] = truncate_n
    if 2 <= truncate_n <= MAX_TRUNCATION:  # truncate() refuses any other n
        _check_render_work(parsed, truncate_n)
    return truncate(parsed, truncate_n), inputs


def _check_render_work(spec: SourceSpec, n: int) -> int:
    """Raise :class:`OutOfRangeError` before any term is built if rendering
    the truncation to n could pass MAX_RENDER_WORK; otherwise return that
    estimate, n weights of up to :func:`check_denominator_bits` bits each."""
    bits = check_denominator_bits(spec, n)
    work = n * bits * bits
    if work > MAX_RENDER_WORK:
        raise OutOfRangeError(
            f"rendering the truncation to n = {n} needs up to {work} squared-bit "
            f"operations, which exceeds the limit of {MAX_RENDER_WORK}")
    return work


def _write_trace(trace: MergeTrace, path: str) -> None:
    # the whole trace is O(n**2) characters, so its lines are built one at a
    # time from the trace's line parts and gathered into blocks of at least
    # TRACE_BLOCK_BYTES, each handed to the unbuffered file in one write: a
    # few large writes, and no text or buffer layer between the lines and
    # the file.  A line's leading entries are a prefix of the one encoding
    # of the joined input weights, appended to the block with no join,
    # format or encode of their own.
    lead, parts = trace.line_parts()
    lead = memoryview(lead.encode("ascii"))
    with open(path, "wb", buffering=0) as f:
        block = bytearray()
        for header, end, rest in parts:
            block += header.encode("ascii")
            block += lead[:end]
            block += rest.encode("ascii")
            block += _LINE_END
            if len(block) >= TRACE_BLOCK_BYTES:
                _write_block(f, block)
        _write_block(f, block)


def _write_block(f, block: bytearray) -> None:
    """Write all of ``block`` to the unbuffered file ``f``, which may take
    only part of it per call, and leave ``block`` empty."""
    while block:
        del block[:f.write(block)]


def _code(dist: FiniteDistribution, traced: bool) -> tuple[LengthVector, MergeTrace | None]:
    """Code lengths, from the one kernel run that also yields the trace
    when one is asked for; a trace longer than MAX_TRACE_BYTES is refused
    before the report is built or the file opened.

    The sizes run from cheapest to exact: a trace whose ceiling is within
    the cap is not sized further; otherwise the floor refuses most
    oversized traces unrendered, from bit lengths alone when they suffice
    and else from the weights' shared gcd, and the exact size decides the
    rest."""
    if not traced:
        return huffman_lengths(dist), None
    lengths, trace = huffman(dist)
    if trace.json_size_ceiling() <= MAX_TRACE_BYTES:
        return lengths, trace
    floor = trace.json_size_floor(MAX_TRACE_BYTES)
    if floor > MAX_TRACE_BYTES:
        raise OutOfRangeError(
            f"--trace would write at least {floor} bytes, which exceeds the limit "
            f"{MAX_TRACE_BYTES}")
    size = trace.json_size()
    if size > MAX_TRACE_BYTES:
        raise OutOfRangeError(
            f"--trace would write {size} bytes, which exceeds the limit {MAX_TRACE_BYTES}")
    return lengths, trace


def _probs(dist: FiniteDistribution, trace: MergeTrace | None) -> list[str]:
    """The rendered probabilities; a trace has rendered them already."""
    return weight_strs(dist.nums, dist.den) if trace is None else trace.input_strs()


def _delta_payload(dist: FiniteDistribution) -> dict:
    result = delta_occasion(dist)
    payload: dict = {"kind": result.kind.name}
    if result.kind is DeltaKind.TRIVIAL:
        payload["l1"] = 1
        payload["note"] = "p1 >= 1/2 forces a one-bit top codeword"
    else:
        state = result.state
        payload["delta"] = result.delta
        payload["state"] = weight_strs(state.nums, state.den)
        payload["l1_floor_log2"] = result.l1
    return payload


def _classification_payload(p1: Fraction) -> dict:
    cls = classify_l1(p1)
    if cls.determined:
        iv = L1Interval(cls.k)
        return {
            "k": cls.k,
            "half_rule": cls.half_rule,
            "interval": {"lower": rat_str(iv.lower), "upper": rat_str(iv.upper)},
        }
    lo, hi = cls.gap
    return {
        "k": None,
        "message": f"UNDETERMINED(gap between k={lo} and k={hi})",
        "gap_between": [lo, hi],
    }


def _analysis_payload(dist: FiniteDistribution, lengths: LengthVector,
                      probs: list[str]) -> dict:
    verdict = check_finite(dist)
    payload = {
        "n": dist.n,
        "probs": probs,
        "lengths": list(lengths),
        "codewords": list(canonical_codebook(lengths)),
        "expected_length": rat_str(expected_length(dist, lengths)),
        "kraft_sum": rat_str(kraft_sum(lengths)),
        "delta": _delta_payload(dist),
        "l1": {
            "from_tree": lengths[0],
            "classification": _classification_payload(dist.p1),
        },
        "anti_uniform": {
            "holds": verdict.holds,
            "first_violation": verdict.first_violation,
        },
    }
    return payload


def _cmd_analyze(args) -> tuple[dict, dict]:
    dist, inputs = _resolve_finite(args.source, args.truncate)
    lengths, trace = _code(dist, args.trace is not None)
    results = _analysis_payload(dist, lengths, _probs(dist, trace))
    if trace is not None:
        _write_trace(trace, args.trace)
        results["trace_file"] = args.trace
    return inputs, results


def _cmd_classify_l1(args) -> tuple[dict, dict]:
    p1 = exact_fraction(args.p1)
    return {"p1": rat_str(p1)}, _classification_payload(p1)


def _cmd_delta(args) -> tuple[dict, dict]:
    dist, inputs = _resolve_finite(args.source, args.truncate)
    return inputs, _delta_payload(dist)


def _cmd_anti_uniform(args) -> tuple[dict, dict]:
    check_depth(args.depth)  # in both modes, before the source is read
    parsed = parse_source(args.source)
    inputs = {"source": args.source, "depth": args.depth}
    if isinstance(parsed, FiniteDistribution):
        verdict = check_finite(parsed)
        results: dict = {"mode": "finite", "n": parsed.n}
    else:
        verdict = check_infinite_tail(parsed, args.depth)
        results = {"mode": "infinite-tail", "depth": args.depth}
        if alpha_criterion(parsed.alphas_cover()):
            results["criterion"] = (
                f"alpha-threshold criterion holds: l_i = i for all i <= {args.depth}"
            )
    results["holds"] = verdict.holds
    if not verdict.holds:
        tail, p = verdict.witness
        results["first_violation"] = verdict.first_violation
        results["witness"] = {"tail_sum": rat_str(tail), "p_i": rat_str(p)}
    return inputs, results


def _cmd_oracle(args) -> tuple[dict, dict]:
    if args.max_len is not None and not args.count_only:  # before the file is read
        raise PrefixCodeError("--max-len only applies with --count-only")
    dist = read_distribution_file(args.dist_file)
    inputs = {"dist_file": args.dist_file}
    if args.count_only:
        return inputs, {
            "n": dist.n,
            "universe_size": count_kraft_tight(dist.n, args.max_len),
        }
    result = optimal_lengths(dist)
    return inputs, {
        "n": dist.n,
        "optimum": rat_str(result.optimum),
        "optimum_decimal": decimal_str(result.optimum, 6),
        "vectors": [list(v) for v in result.vectors],
    }


def _csv_text(seq: Sequence[Sequence[int]], depth: int, n_min: int) -> str:
    """Plot-ready CSV rows (n, l_1..l_depth) of the length prefixes ``seq``
    for n = n_min, n_min + 1, ...; blank cells where symbol > n.

    Lengths settle as n grows, so an entry equal to the one before it reuses
    that entry's rendered cells.
    """
    lines = ["n," + ",".join(f"l_{i}" for i in range(1, depth + 1))]
    before = cells = None
    for n, vec in enumerate(seq, start=n_min):
        if vec != before:
            before = vec
            cells = ",".join(["", *map(str, vec[:depth]), *[""] * (depth - len(vec))])
        lines.append(f"{n}{cells}")
    lines.append("")
    return "\n".join(lines)


def _cmd_converge(args) -> tuple[dict, dict]:
    if args.spec.strip().startswith("file:"):  # refused before the file is read
        raise PrefixCodeError("converge needs an infinite source literal (geom:/alpha:)")
    spec = parse_source(args.spec)
    report = estimate_optimal_lengths(
        spec, depth=args.depth, n_max=args.nmax, window=args.window
    )
    inputs = {
        "spec": args.spec,
        "depth": args.depth,
        "nmax": args.nmax,
        "window": args.window,
    }
    results = report.to_dict()
    if args.csv is not None:
        Path(args.csv).write_text(
            _csv_text(report.length_prefixes, args.depth, report.n_min), encoding="utf-8"
        )
        results["csv_file"] = args.csv
    return inputs, results


def _cmd_coverage_sum(args) -> tuple[dict, dict]:
    bounds = coverage_sum(args.terms)
    return {"terms": args.terms}, {
        "partial": rat_str(bounds.partial),
        "partial_decimal": decimal_str(bounds.partial, 6),
        "total_lower": rat_str(bounds.lower),
        "total_lower_decimal_floor": decimal_floor(bounds.lower, 6),
        "total_upper": rat_str(bounds.upper),
        "total_upper_decimal_ceil": decimal_ceil(bounds.upper, 6),
    }


def _cmd_counterexample(args) -> tuple[dict, dict]:
    epsilon = exact_fraction(args.epsilon)
    dist = counterexample(args.family, epsilon)
    inputs = {"family": args.family, "epsilon": rat_str(epsilon)}
    traced = args.trace is not None
    lengths, trace = _code(dist, traced) if args.analyze or traced else (None, None)
    probs = _probs(dist, trace)
    results: dict = {"probs": probs}
    if args.analyze:
        results["analysis"] = _analysis_payload(dist, lengths, probs)
    if trace is not None:
        _write_trace(trace, args.trace)
        results["trace_file"] = args.trace
    return inputs, results


def build_parser() -> argparse.ArgumentParser:
    # SUPPRESS keeps a flag given before the subcommand from being reset to
    # a default by the subparser, so --quiet works in either position
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", default=argparse.SUPPRESS,
        help="emit a JSON report (default and only output mode)",
    )
    common.add_argument(
        "--quiet", action="store_true", default=argparse.SUPPRESS,
        help="omit the inputs echo from the report",
    )
    parser = argparse.ArgumentParser(
        prog="prefixcode",
        description="Exact-arithmetic analysis of optimal prefix codes.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    def add_source(p, with_truncate=True):
        p.add_argument("source", help="geom:a/b | alpha:[a/b,...] | file:PATH")
        if with_truncate:
            p.add_argument("--truncate", type=int, default=None, metavar="N",
                           help="truncation size for infinite source literals")

    p = add_parser("analyze", help="full code analysis of a finite source")
    add_source(p)
    p.add_argument("--trace", metavar="PATH", help="write the merge trace as JSON lines")
    p.set_defaults(handler=_cmd_analyze)

    p = add_parser("classify-l1", help="interval classification of a top probability")
    p.add_argument("p1", help='top probability, e.g. "2/9" or "0.25"')
    p.set_defaults(handler=_cmd_classify_l1)

    p = add_parser("delta", help="delta-occasion of a finite source")
    add_source(p)
    p.set_defaults(handler=_cmd_delta)

    p = add_parser("anti-uniform", help="suffix-sum / tail domination check")
    add_source(p, with_truncate=False)
    p.add_argument("--depth", type=int, default=50,
                   help="indices to check for infinite sources (default 50)")
    p.set_defaults(handler=_cmd_anti_uniform)

    p = add_parser("oracle", help="brute-force optimal length vectors")
    p.add_argument("dist_file", help="distribution file path")
    p.add_argument("--count-only", action="store_true",
                   help="print the enumeration universe size only")
    p.add_argument("--max-len", type=int, default=None,
                   help="cap on codeword length (default n-1); "
                        "applies only with --count-only")
    p.set_defaults(handler=_cmd_oracle)

    p = add_parser("converge", help="truncation stabilization report")
    p.add_argument("--spec", required=True, help="geom:a/b | alpha:[a/b,...]")
    p.add_argument("--depth", type=int, required=True, help="symbols to track")
    p.add_argument("--nmax", type=int, default=DEFAULT_NMAX)
    p.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    p.add_argument("--csv", metavar="PATH", help="also write (n, l_1..l_D) rows as CSV")
    p.set_defaults(handler=_cmd_converge)

    p = add_parser("coverage-sum", help="certified coverage of the l1 intervals")
    p.add_argument("--terms", type=int, default=10, metavar="K")
    p.set_defaults(handler=_cmd_coverage_sum)

    p = add_parser("counterexample", help="build a gap-family distribution")
    p.add_argument("family", type=int, choices=(1, 2, 3))
    p.add_argument("--epsilon", default="0", help='perturbation, e.g. "1/36"')
    p.add_argument("--analyze", action="store_true", help="include full analysis")
    p.add_argument("--trace", metavar="PATH", help="write the merge trace as JSON lines")
    p.set_defaults(handler=_cmd_counterexample)

    return parser


# how a list whose items all have exactly one of these types renders them
_FLAT = {str: encode_basestring_ascii, int: int.__repr__}


def _render(value, indent: str) -> str:
    """``value`` as ``json.dumps(value, indent=2)`` renders it when nested
    at ``indent``: the same string escape (json's ``ensure_ascii``) and int
    repr, so also the same error past the int-to-str digit limit."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        # a key that is not a str raises TypeError in the escape
        items = [encode_basestring_ascii(key) + ": " + _render(item, inner)
                 for key, item in value.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if isinstance(value, list):
        if not value:
            return "[]"
        kinds = set(map(type, value))
        flat = _FLAT.get(kinds.pop()) if len(kinds) == 1 else None
        items = map(flat, value) if flat else [_render(item, inner) for item in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def render_report(command: str, inputs: dict, results: dict, quiet: bool) -> str:
    report = {"command": command}
    if not quiet:
        report["inputs"] = inputs
    report["results"] = results
    report["provenance"] = PROVENANCE
    return _render(report, "")


# built by the first run(): building it costs more than most commands, and
# help and usage text read the terminal width when printed, not when built
_parser: argparse.ArgumentParser | None = None


def run(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        inputs, results = args.handler(args)
    except (PrefixCodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1
    print(render_report(args.command, inputs, results, getattr(args, "quiet", False)))
    return 0


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so that the flush at
        # interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
