"""Command-line front end.

Every subcommand prints one JSON report to stdout:

    {"command": ..., "inputs": ..., "results": ..., "provenance": ...}

Rationals are serialized as exact "a/b" strings; decimal renderings are
explicitly labeled and always accompany an exact value.  Exit codes: 0 on
success, 2 on input errors, 1 on internal invariant failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from fractions import Fraction
from pathlib import Path

from prefixcode import __version__
from prefixcode.antiuniform import (
    alpha_criterion,
    check_finite,
    check_infinite_tail,
)
from prefixcode.convergence import csv_rows, estimate_optimal_lengths
from prefixcode.delta import DeltaKind, delta_occasion, l1_via_delta
from prefixcode.distributions import FiniteDistribution, counterexample
from prefixcode.errors import PrefixCodeError, TailNotComputableError
from prefixcode.fileio import parse_rational, parse_source, read_distribution_file
from prefixcode.huffman import (
    MergeTrace,
    canonical_codebook,
    expected_length,
    huffman,
    kraft_sum,
)
from prefixcode.intervals import L1Interval, classify_l1, coverage_sum
from prefixcode.numutil import decimal_ceil, decimal_floor, decimal_str
from prefixcode.oracle import count_kraft_tight, optimal_lengths
from prefixcode.sources import SourceSpec, truncate

PROVENANCE = {
    "tool": f"prefixcode {__version__}",
    "ruleset": "standardized-merge/insert-before-equals",
}


def _rat(x: Fraction) -> str:
    x = Fraction(x)
    try:
        return str(x)
    except ValueError:
        # more digits than the interpreter's int-to-str limit (4300 by
        # default), which valid inputs can reach; lift it for this render
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(x)
        finally:
            sys.set_int_max_str_digits(limit)


def _resolve_finite(source: str, truncate_n: int | None) -> tuple[FiniteDistribution, dict]:
    """Parse a source argument down to a finite distribution."""
    parsed = parse_source(source)
    inputs: dict = {"source": source}
    if isinstance(parsed, FiniteDistribution):
        if truncate_n is not None:
            raise PrefixCodeError("--truncate only applies to infinite source literals")
        return parsed, inputs
    if truncate_n is None:
        raise TailNotComputableError(
            "infinite source literal needs --truncate N to analyze a finite code"
        )
    inputs["truncate"] = truncate_n
    return truncate(parsed, truncate_n), inputs


def _write_trace(trace: MergeTrace, path: str) -> None:
    Path(path).write_text("\n".join(trace.json_lines()) + "\n", encoding="utf-8")


def _delta_payload(dist: FiniteDistribution) -> dict:
    result = delta_occasion(dist)
    payload: dict = {"kind": result.kind.name}
    if result.kind is DeltaKind.TRIVIAL:
        payload["l1"] = 1
        payload["note"] = "p1 >= 1/2 forces a one-bit top codeword"
    else:
        payload["delta"] = result.delta
        payload["state"] = [_rat(p) for p in result.state.probs]
        payload["l1_floor_log2"] = l1_via_delta(dist)
    return payload


def _classification_payload(p1: Fraction) -> dict:
    cls = classify_l1(p1)
    if cls.determined:
        iv = L1Interval(cls.k)
        return {
            "k": cls.k,
            "half_rule": cls.half_rule,
            "interval": {"lower": _rat(iv.lower), "upper": _rat(iv.upper)},
        }
    lo, hi = cls.gap
    return {
        "k": None,
        "message": f"UNDETERMINED(gap between k={lo} and k={hi})",
        "gap_between": [lo, hi],
    }


def _analysis_payload(dist: FiniteDistribution) -> dict:
    lengths, _ = huffman(dist)
    verdict = check_finite(dist)
    payload = {
        "n": dist.n,
        "probs": [_rat(p) for p in dist.probs],
        "lengths": list(lengths),
        "codewords": list(canonical_codebook(lengths)),
        "expected_length": _rat(expected_length(dist, lengths)),
        "kraft_sum": _rat(kraft_sum(lengths)),
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
    results = _analysis_payload(dist)
    if args.trace:
        _, trace = huffman(dist)
        _write_trace(trace, args.trace)
        results["trace_file"] = args.trace
    return inputs, results


def _cmd_classify_l1(args) -> tuple[dict, dict]:
    p1 = parse_rational(args.p1)
    return {"p1": _rat(p1)}, _classification_payload(p1)


def _cmd_delta(args) -> tuple[dict, dict]:
    dist, inputs = _resolve_finite(args.source, args.truncate)
    return inputs, _delta_payload(dist)


def _cmd_anti_uniform(args) -> tuple[dict, dict]:
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
        results["witness"] = {"tail_sum": _rat(tail), "p_i": _rat(p)}
    return inputs, results


def _cmd_oracle(args) -> tuple[dict, dict]:
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
        "optimum": _rat(result.optimum),
        "optimum_decimal": decimal_str(result.optimum, 6),
        "vectors": [list(v) for v in result.vectors],
    }


def _cmd_converge(args) -> tuple[dict, dict]:
    spec = parse_source(args.spec)
    if not isinstance(spec, SourceSpec):
        raise PrefixCodeError("converge needs an infinite source literal (geom:/alpha:)")
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
    if args.csv:
        rows = csv_rows(report.length_prefixes, args.depth)
        Path(args.csv).write_text(
            "\n".join(",".join(row) for row in rows) + "\n", encoding="utf-8"
        )
        results["csv_file"] = args.csv
    return inputs, results


def _cmd_coverage_sum(args) -> tuple[dict, dict]:
    bounds = coverage_sum(args.terms)
    return {"terms": args.terms}, {
        "partial": _rat(bounds.partial),
        "partial_decimal": decimal_str(bounds.partial, 6),
        "total_lower": _rat(bounds.lower),
        "total_lower_decimal_floor": decimal_floor(bounds.lower, 6),
        "total_upper": _rat(bounds.upper),
        "total_upper_decimal_ceil": decimal_ceil(bounds.upper, 6),
    }


def _cmd_counterexample(args) -> tuple[dict, dict]:
    epsilon = parse_rational(args.epsilon)
    dist = counterexample(args.family, epsilon)
    inputs = {"family": args.family, "epsilon": _rat(epsilon)}
    results: dict = {"probs": [_rat(p) for p in dist.probs]}
    if args.analyze:
        results["analysis"] = _analysis_payload(dist)
    if args.trace:
        _, trace = huffman(dist)
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
                   help="cap on codeword length (default n-1)")
    p.set_defaults(handler=_cmd_oracle)

    p = add_parser("converge", help="truncation stabilization report")
    p.add_argument("--spec", required=True, help="geom:a/b | alpha:[a/b,...]")
    p.add_argument("--depth", type=int, required=True, help="symbols to track")
    p.add_argument("--nmax", type=int, default=512)
    p.add_argument("--window", type=int, default=32)
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


def render_report(command: str, inputs: dict, results: dict, quiet: bool) -> str:
    report = {"command": command}
    if not quiet:
        report["inputs"] = inputs
    report["results"] = results
    report["provenance"] = PROVENANCE
    return json.dumps(report, indent=2)


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
    sys.exit(run())


if __name__ == "__main__":
    main()
