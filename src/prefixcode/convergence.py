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
from typing import Sequence

from prefixcode import kernel
from prefixcode.antiuniform import alpha_criterion
from prefixcode.distributions import check_weights
from prefixcode.errors import NotNormalizedError, OutOfRangeError
# huffman_lengths stays importable from this module: perfbench's tracer
# tests rebind it under this name
from prefixcode.huffman import LengthVector, huffman_lengths  # noqa: F401
from prefixcode.intervals import classify_l1, classify_l1_infinite
from prefixcode.numutil import rat_str
from prefixcode.sources import MAX_TRUNCATION, SourceSpec, check_denominator_bits

DEFAULT_WINDOW = 32
DEFAULT_NMAX = 512

# Largest sweep, in bit-merges (merges times the bits of the shared
# denominator), that `converge` runs.  The denominator cap bounds the size
# of a prefix, not the sweep over it: within it, a 2**-255 ratio shares no
# merges across truncations and would run for about 35 s at n_max = 1024
# (1.4e11 bit-merges).  2**34, about 1.7e10, admits every sweep the tests,
# the benchmark and the README run; the largest, geom:3/100 at
# n_max = 4096, needs 7.9e9.
MAX_SWEEP_WORK = 1 << 34

CERTIFIED = "CERTIFIED"
EMPIRICAL = "EMPIRICAL"


def check_sweep_work(spec: SourceSpec, n_max: int) -> int:
    """Raise :class:`OutOfRangeError` before any term is built if the sweep
    to n_max could pass MAX_SWEEP_WORK bit-merges; otherwise return that
    estimate.

    Truncation n costs at most min(n, L + 2/alpha_L + 1) merges (the
    frontier bound of :mod:`prefixcode.kernel`), each an addition of at most
    the bits of the n_max denominator (:func:`check_denominator_bits`).
    """
    bits = check_denominator_bits(spec, n_max)
    cover = spec.alphas_cover().alphas
    alpha = cover[-1]
    per_n = len(cover) + 1 + 2 * alpha.denominator // alpha.numerator
    ramp = min(n_max, per_n)  # truncations n <= ramp cost n merges
    work = (ramp * (ramp + 1) // 2 - 1 + (n_max - ramp) * per_n) * bits
    if work > MAX_SWEEP_WORK:
        raise OutOfRangeError(
            f"the sweep to n = {n_max} needs up to {work} bit-merges, which "
            f"exceeds the limit of {MAX_SWEEP_WORK}"
        )
    return work


def _sweep(spec: SourceSpec, n_min: int, n_max: int, depth: int) -> list[list[int]]:
    """Huffman lengths of symbols 1..depth in the truncations n = n_min..n_max,
    in order (all n lengths where depth >= n).

    Merging is scale-invariant, so truncation n codes the integer prefix
    ``nums[:n]`` of the n_max prefix over one shared denominator (the
    spec's ``prefix_numerators``) instead of renormalizing by S_n; the
    lengths equal those of ``truncate(spec, n)``.  The prefix is checked
    whole before any truncation is coded, so a faulty source costs no merges:

    * positivity and sortedness of the n_max prefix, which every shorter
      prefix inherits;
    * an exact partial sum S_n for every n >= n_min, as a truncated
      distribution checks it.  S_n is 1 minus the product of (1 - alpha_j)
      over j <= n, which the alpha cover gives as one integer fraction, a
      small factor per n; once S_(n-1) is checked, 1 - S_n is checked
      against (1 - S_(n-1))*(1 - alpha_n), so each n multiplies only by
      the small factor.  A mismatch raises :class:`NotNormalizedError`
      with the prefix sum over the cover's S_n;
    * the tail ratio p_(n+1)*d = p_n*c for every n >= L, below n_min too,
      with L the length of the alpha cover and c/d = 1 - alpha_L.
      :func:`kernel.tail_depths` shares the merges below p_L across
      truncations only because the prefix is geometric from p_L on; a
      prefix that breaks its own cover is a bug of the source and raises
      :class:`RuntimeError`.

    The sweep's work is capped before any term is built
    (:func:`check_sweep_work`).
    """
    if not 2 <= n_min <= n_max <= MAX_TRUNCATION:
        raise OutOfRangeError(
            f"need 2 <= n_min <= n_max <= {MAX_TRUNCATION}, got [{n_min}, {n_max}]"
        )
    check_sweep_work(spec, n_max)
    nums, den = spec.prefix_numerators(n_max)
    check_weights(nums, sum(nums))
    cover = spec.alphas_cover().alphas
    factors = [(a.denominator - a.numerator, a.denominator) for a in cover]
    tail = len(cover)
    c, d = factors[-1]
    rest, scale = den, 1  # the cover's 1 - S_n, over den, is rest / scale
    total = 0  # S_n = total / den
    for n in range(1, n_max + 1):
        f_rest, f_scale = factors[min(n, tail) - 1]
        rest *= f_rest
        scale *= f_scale
        total += nums[n - 1]
        if n >= n_min:
            if (den - total) * scale != rest:
                raise NotNormalizedError(Fraction(total * scale, den * scale - rest))
            rest, scale = den - total, 1
        if n > tail and nums[n - 1] * d != nums[n - 2] * c:
            raise RuntimeError(
                f"{spec.literal()}: p_{n}/p_{n - 1} is not the alpha cover's tail "
                f"ratio {c}/{d}"
            )
    return list(kernel.tail_depths(nums, tail, c, d, n_min, depth))


def truncation_sequence(spec: SourceSpec, n_min: int, n_max: int) -> list[LengthVector]:
    """Huffman lengths of every truncation from n_min through n_max."""
    return [LengthVector(tuple(lengths)) for lengths in _sweep(spec, n_min, n_max, n_max)]


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
    # lengths of symbols 1..depth for n = n_min..n_max, for the CLI's CSV;
    # not part of the JSON report
    length_prefixes: tuple[tuple[int, ...], ...] = field(default=(), repr=False)

    def to_dict(self) -> dict:
        return {
            "spec": self.spec_literal,
            "n_min": self.n_min,
            "n_max": self.n_max,
            "window": self.window,
            "per_symbol": [s.to_dict() for s in self.per_symbol],
        }


def _final_run_starts(seq: Sequence[Sequence[int]]) -> list[int]:
    """For each symbol s that the last entry of ``seq`` holds, the first n
    of the run of equal lengths of s that ends there, ``seq[0]`` being
    n = 2; an entry too short to hold s ends the run.

    Walks back from the end one whole entry at a time: an entry equal to
    the one after it ends no run, so only entries that differ from their
    successor are looked at symbol by symbol.
    """
    last = seq[-1]
    starts = [2] * len(last)
    running = range(len(last))  # the symbols whose run has not ended
    later = last
    for off in range(len(seq) - 2, -1, -1):
        row = seq[off]
        if row == later:
            continue
        later = row
        held = len(row)
        still = []
        for s in running:
            if s < held and row[s] == last[s]:
                still.append(s)
            else:
                starts[s] = off + 3  # the n of the entry after seq[off]
        if not still:
            break
        running = still
    return starts


def _check_window_top(spec: SourceSpec, first_n: int, n_max: int, k: int) -> None:
    """Raise :class:`OutOfRangeError` if a truncation of the window
    n = first_n..n_max has its own top probability p1/S_n outside the
    interval that certifies l_1 = k.

    The interval theorem pins l_1 = k for a truncation only when its own
    p1/S_n lies in the k-th interval; a window of small n can fall outside
    it, so an observed l_1 != k there contradicts nothing.

    Only truncation first_n is classified.  Its top probability is
    t_n = p1/S_n; S_n strictly increases with n, so t_n strictly decreases,
    and t_n > p1.  p1 lies in interval k (or at or above 1/2 for the half
    rule), whose lower end t_n thus exceeds, so t_n classifies as k exactly
    when t_n < 1/(2**k - 1), which then holds for every later n too.  The
    first n of the window whose t_n misclassifies is therefore first_n, or
    there is none.
    """
    top = spec.prob(1) / spec.head_sum(first_n)
    if classify_l1(top).k != k:
        raise OutOfRangeError(
            f"window n = {first_n}..{n_max} is too early: truncation n = {first_n} has "
            f"top probability {rat_str(top)}, outside the interval that "
            f"certifies l_1 = {k}; raise --nmax"
        )


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
    if not 2 <= n_max <= MAX_TRUNCATION:
        raise OutOfRangeError(f"n_max must be in [2, {MAX_TRUNCATION}], got {n_max}")
    if not 1 <= window <= n_max - 1:
        raise OutOfRangeError(f"window must be in [1, {n_max - 1}], got {window}")
    if depth > n_max - window:
        raise OutOfRangeError(
            f"depth {depth} exceeds n_max - window = {n_max - window}"
        )
    # only symbols 1..depth are reported, so only their lengths are coded
    seq = tuple(tuple(lengths) for lengths in _sweep(spec, 2, n_max, depth))

    classification = classify_l1_infinite(spec)
    skewed = alpha_criterion(spec.alphas_cover())

    since = _final_run_starts(seq)
    first_n = n_max - window + 1
    last = seq[-1]
    reports = []
    for symbol in range(1, depth + 1):
        # the window lies inside the final run exactly when that run starts
        # at or before the window's first n
        stable_since = since[symbol - 1] if since[symbol - 1] <= first_n else None
        length = last[symbol - 1] if stable_since is not None else None
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
        if certified_value is not None and length is not None:
            if length != certified_value:
                if symbol == 1 and classification.determined:
                    _check_window_top(spec, first_n, n_max, certified_value)
                raise RuntimeError(
                    f"symbol {symbol}: observed {length} contradicts "
                    f"certified {certified_value}"
                )
        witness = None
        if length is None:
            changes = []
            for n, row in enumerate(seq[first_n - 2 :], start=first_n):
                if not changes or row[symbol - 1] != changes[-1][1]:
                    changes.append((n, row[symbol - 1]))
            witness = tuple(changes)
        reports.append(
            SymbolReport(
                symbol=symbol,
                stabilized_length=length,
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
