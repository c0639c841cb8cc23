"""Truncation harness: per-symbol codeword-length stabilization.

For an infinite source, the deterministic Huffman codes of its truncations
are guaranteed to contain a subsequence converging to the optimal infinite
code, but only a subsequence.  The harness therefore reports what it can
honestly observe (trailing-window constancy of each symbol's length under
canonical codeword assignment) and labels each entry:

* CERTIFIED: a theorem pins the value, either the p1-interval
  classification (symbol 1) or the alpha-threshold criterion (l_i = i);
* EMPIRICAL: stabilization was observed but nothing proves it is final.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Sequence

from prefixcode import kernel
from prefixcode.antiuniform import alpha_criterion
from prefixcode.errors import (
    NonPositiveEntryError,
    NotNormalizedError,
    NotSortedError,
    OutOfRangeError,
    SymbolOutOfRangeError,
)
# huffman_lengths stays importable from this module: perfbench's tracer
# tests rebind it under this name
from prefixcode.huffman import LengthVector, huffman_lengths  # noqa: F401
from prefixcode.intervals import classify_l1_infinite
from prefixcode.numutil import common_numerators
from prefixcode.sources import SourceSpec

DEFAULT_WINDOW = 32
DEFAULT_NMAX = 512
_NMAX_LIMIT = 4096

CERTIFIED = "CERTIFIED"
EMPIRICAL = "EMPIRICAL"


def _sweep(spec: SourceSpec, n_min: int, n_max: int) -> Iterator[list[int]]:
    """Huffman lengths of the truncations n = n_min..n_max, in order.

    Merging is scale-invariant, so truncation n codes the integer prefix
    ``nums[:n]`` of the n_max prefix over one shared denominator instead of
    renormalizing by S_n; the lengths equal those of ``truncate(spec, n)``.
    The checks a truncated distribution makes still hold: positivity and
    sortedness of the n_max prefix (every shorter prefix inherits them), and
    an exact partial sum S_n for every n.
    """
    if not 2 <= n_min <= n_max <= _NMAX_LIMIT:
        raise OutOfRangeError(
            f"need 2 <= n_min <= n_max <= {_NMAX_LIMIT}, got [{n_min}, {n_max}]"
        )
    probs = spec.prefix_probs(n_max)
    for p in probs:
        if p <= 0:
            raise NonPositiveEntryError(f"entry {p} is not strictly positive")
    for a, b in zip(probs, probs[1:]):
        if a < b:
            raise NotSortedError(f"{a} < {b}: entries must be non-increasing")
    nums, den = common_numerators(probs)
    total = sum(nums[: n_min - 1])
    for n in range(n_min, n_max + 1):
        total += nums[n - 1]
        sn = spec.head_sum(n)
        if total * sn.denominator != sn.numerator * den:
            raise NotNormalizedError(Fraction(total, den) / sn)
        yield kernel.run_merges(nums[:n])[0]


def truncation_sequence(spec: SourceSpec, n_min: int, n_max: int) -> list[LengthVector]:
    """Huffman lengths of every truncation from n_min through n_max."""
    return [LengthVector(tuple(lengths)) for lengths in _sweep(spec, n_min, n_max)]


@dataclass(frozen=True)
class Stabilization:
    """Trailing-window verdict for one symbol."""

    length: int | None
    observed: tuple[tuple[int, int], ...]  # (n, length) across the window

    @property
    def stabilized(self) -> bool:
        return self.length is not None


def detect_stabilization(
    seq: Sequence[Sequence[int]], symbol: int, window: int, n_min: int = 2
) -> Stabilization:
    """Check whether a symbol's length is constant over the trailing window.

    ``seq`` holds the length vectors (or their leading entries) for
    consecutive sizes starting at ``n_min``.  The window covers the last
    ``window`` entries, all of which must contain the symbol.
    """
    if not 1 <= window <= len(seq):
        raise OutOfRangeError(f"window must be in [1, {len(seq)}], got {window}")
    first_n = n_min + len(seq) - window
    if symbol < 1 or symbol > first_n:
        raise SymbolOutOfRangeError(
            f"symbol {symbol} not present in every window code (window starts at n={first_n})"
        )
    tail = seq[len(seq) - window :]
    observed = tuple(
        (first_n + off, vec[symbol - 1]) for off, vec in enumerate(tail)
    )
    values = {length for _, length in observed}
    if len(values) == 1:
        return Stabilization(values.pop(), observed)
    return Stabilization(None, observed)


@dataclass(frozen=True)
class SymbolReport:
    symbol: int
    stabilized_length: int | None
    stable_since: int | None
    oscillation_witness: tuple[tuple[int, int], ...] | None
    status: str  # CERTIFIED or EMPIRICAL
    certificate: str | None

    def to_dict(self) -> dict:
        return {
            "symbol": self.symbol,
            "stabilized_length": self.stabilized_length,
            "stable_since": self.stable_since,
            "oscillation_witness": (
                None
                if self.oscillation_witness is None
                else [list(pair) for pair in self.oscillation_witness]
            ),
            "status": self.status,
            "certificate": self.certificate,
        }


@dataclass(frozen=True)
class ConvergenceReport:
    spec_literal: str
    n_min: int
    n_max: int
    window: int
    per_symbol: tuple[SymbolReport, ...]
    # lengths of symbols 1..depth for n = n_min..n_max, for csv_rows; not
    # part of the JSON report
    length_prefixes: tuple[tuple[int, ...], ...] = field(default=(), repr=False)

    def to_dict(self) -> dict:
        return {
            "spec": self.spec_literal,
            "n_min": self.n_min,
            "n_max": self.n_max,
            "window": self.window,
            "per_symbol": [s.to_dict() for s in self.per_symbol],
        }


def csv_rows(seq: Sequence[Sequence[int]], depth: int, n_min: int = 2) -> list[list[str]]:
    """Plot-ready rows (n, l_1..l_depth); blank where symbol > n."""
    header = ["n"] + [f"l_{i}" for i in range(1, depth + 1)]
    rows = [header]
    for off, vec in enumerate(seq):
        n = n_min + off
        rows.append(
            [str(n)] + [str(vec[i - 1]) if i <= len(vec) else "" for i in range(1, depth + 1)]
        )
    return rows


def estimate_optimal_lengths(
    spec: SourceSpec,
    depth: int,
    n_max: int = DEFAULT_NMAX,
    window: int = DEFAULT_WINDOW,
) -> ConvergenceReport:
    """Per-symbol stabilization report for symbols 1..depth.

    Symbol 1 is cross-annotated with the p1-interval classification and all
    symbols with the alpha-threshold criterion; theorem-backed entries are
    CERTIFIED, the rest EMPIRICAL.  A certified value contradicting an
    observed stabilization would falsify a theorem, so it raises.
    """
    if depth < 1:
        raise OutOfRangeError(f"depth must be >= 1, got {depth}")
    if depth > n_max - window:
        raise OutOfRangeError(
            f"depth {depth} exceeds n_max - window = {n_max - window}"
        )
    # only symbols 1..depth are reported, so keep only their lengths
    seq = tuple(tuple(lengths[:depth]) for lengths in _sweep(spec, 2, n_max))

    classification = classify_l1_infinite(spec)
    skewed = alpha_criterion(spec.alphas_cover())

    reports = []
    for symbol in range(1, depth + 1):
        stab = detect_stabilization(seq, symbol, window)
        certificate = None
        certified_value = None
        if symbol == 1 and classification.determined:
            certified_value = classification.k
            certificate = (
                f"p1-interval classification: l_1 = {classification.k}"
                + (" (p1 >= 1/2 rule)" if classification.half_rule else "")
            )
        elif skewed:
            certified_value = symbol
            certificate = f"alpha-threshold criterion: l_{symbol} = {symbol}"
        if certified_value is not None and stab.stabilized:
            if stab.length != certified_value:
                raise RuntimeError(
                    f"symbol {symbol}: observed {stab.length} contradicts "
                    f"certified {certified_value}"
                )
        stable_since = None
        if stab.stabilized:
            stable_since = n_max - window + 1
            idx = len(seq) - window - 1
            while idx >= 0 and symbol <= len(seq[idx]) and seq[idx][symbol - 1] == stab.length:
                stable_since = 2 + idx
                idx -= 1
        witness = None
        if not stab.stabilized:
            changes = [stab.observed[0]]
            for (n, l) in stab.observed[1:]:
                if l != changes[-1][1]:
                    changes.append((n, l))
            witness = tuple(changes)
        reports.append(
            SymbolReport(
                symbol=symbol,
                stabilized_length=stab.length,
                stable_since=stable_since,
                oscillation_witness=witness,
                status=CERTIFIED if certificate is not None else EMPIRICAL,
                certificate=certificate,
            )
        )
    return ConvergenceReport(
        spec_literal=spec.literal(),
        n_min=2,
        n_max=n_max,
        window=window,
        per_symbol=tuple(reports),
        length_prefixes=seq,
    )
