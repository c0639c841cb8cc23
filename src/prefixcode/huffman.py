"""Deterministic Huffman coding with an exact, replayable merge trace.

The merge rule is fully standardized so that every run over the same input
is bit-identical: the two masses merged are always the last two positions
of the non-increasing state, and their sum is inserted *before* any
existing entry of equal value.  Equivalently the 1-based insertion index k
is the unique position such that every entry before k is strictly greater
than the sum and every entry from k on is at most the sum (a virtual
sentinel larger than 1 sits at position 0).

Codeword lengths are read off the kernel's record one tree level at a time
from the root down: the root has depth 0 and each merged node's two
children sit one level deeper.  No merge tree is built.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Iterator

from prefixcode import kernel
from prefixcode.distributions import FiniteDistribution, Weights, check_weights
from prefixcode.errors import (
    KraftViolationError,
    NonPositiveEntryError,
    NotSortedError,
    SizeMismatchError,
    TooFewEntriesError,
)
from prefixcode.numutil import weight_strs


@dataclass(frozen=True)
class MergeState(Weights):
    """Weight list after m merges: non-increasing, summing to ``den``, stored
    in lowest terms."""

    m: int
    nums: tuple[int, ...]
    den: int

    def __post_init__(self):
        self._store()


# between two state entries: each entry is rendered unquoted, and the
# record puts the outer quotes around the joined list
_STATE_SEP = '", "'


def _record(m: object, k: object, merged: str, state: str) -> str:
    """One trace line: merge m, its insertion index k, the unquoted merged
    weight and the unquoted state entries joined by ``_STATE_SEP``."""
    return f'{{"m": {m}, "k": {k}, "merged": "{merged}", "state": ["{state}"]}}'


# characters of a written trace line (with its newline) outside its fields
_RECORD_FIXED = len(_record("", "", "", "") + "\n")


@dataclass(frozen=True)
class MergeTrace:
    """The kernel's record of the standardized merge process over checked
    weights.

    ``nums`` are the input weights over the shared denominator ``den``: the
    only input, checked once with
    :func:`~prefixcode.distributions.check_weights` (and at least two of
    them).  One :func:`~prefixcode.kernel.run_merges` call then fills the
    other fields, which no caller can set: merge m placed the merged weight
    ``sums[m-1]`` at 1-based index ``ks[m-1]`` of the reduced state, and
    ``lengths`` are the code lengths.  Every record is thus the kernel's,
    so the JSON lines and their sizes replay it with no further check.

    The JSON lines render each weight once (:meth:`input_strs` hands the
    input weights' strings to a report) and replay a list of those strings,
    so a line costs one join.  Three sizes bound the lines before any is
    written, cheapest first, each one replay of the state's widths
    (:meth:`_size`): :meth:`json_size_ceiling` with every weight at the
    widest any can take, :meth:`json_size_floor` at widths from bit
    lengths, and :meth:`json_size` at the rendered strings'.
    """

    nums: tuple[int, ...]
    den: int
    ks: tuple[int, ...] = field(init=False)
    sums: tuple[int, ...] = field(init=False)
    lengths: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        nums = tuple(self.nums)
        check_weights(nums, self.den)
        if len(nums) < 2:
            raise TooFewEntriesError("a merge trace needs at least two weights")
        lengths, ks, sums = kernel.run_merges(nums)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "ks", tuple(ks))
        object.__setattr__(self, "sums", tuple(sums))
        object.__setattr__(self, "lengths", tuple(lengths))

    @cached_property
    def _strs(self) -> tuple[list[str], list[str]]:
        """The input weights and the merged weights as
        :func:`~prefixcode.numutil.weight_strs` renders them, unquoted."""
        return weight_strs(self.nums, self.den), weight_strs(self.sums, self.den)

    def input_strs(self) -> list[str]:
        """``weight_strs(nums, den)``, taken from the rendering the lines
        use, so a report's ``probs`` renders no weight a second time."""
        return list(self._strs[0])

    def json_size(self) -> int:
        """The length of :meth:`iter_json_lines`, newlines included, in
        characters (they are ASCII, so bytes too), without building a line."""
        inputs, merged = self._strs
        return self._size(list(map(len, inputs)), map(len, merged))

    def json_size_floor(self) -> int:
        """A lower bound on :meth:`json_size` from bit lengths alone, with no
        weight rendered; below it whenever a state holds a weight under 1.

        Each weight counts only the digits of its reduced denominator and one
        character more.  For v < den that denominator is b = den/gcd(v, den)
        >= den/v > 2**t, t = den.bit_length() - 1 - v.bit_length(), so it has
        at least floor(t * log10(2)) + 1 digits; the weight den renders as
        ``1``.
        """
        bits = self.den.bit_length() - 1

        def width(v: int) -> int:
            # 30102999/10**8 < log10(2)
            return 1 + max(bits - v.bit_length(), 0) * 30102999 // 10**8

        return self._size([width(v) for v in self.nums], map(width, self.sums))

    def json_size_ceiling(self) -> int:
        """An upper bound on :meth:`json_size` with no weight rendered: one
        replay with every weight at the widest any can take.

        A weight a/b is at most 1 and b divides ``den``, so it renders in at
        most 2d + 1 characters, d the digits of ``den``; den < 2**t, t its
        bit length, gives d <= floor(t * log10(2)) + 1.
        """
        # 30103/10**5 > log10(2)
        width = 2 * (self.den.bit_length() * 30103 // 10**5 + 1) + 1
        return self._size([width] * len(self.nums), [width] * len(self.sums))

    def _size(self, widths: list[int], merged: Iterable[int]) -> int:
        """The trace's length with the input weights taking ``widths`` and
        the merged weights ``merged`` characters: the widths of the state are
        replayed as the weights are, and their total is updated by the two
        popped and the one merged."""
        state = sum(widths)
        size = 0
        for m, (k, w) in enumerate(zip(self.ks, merged), start=1):
            state += w - widths.pop() - widths.pop()
            widths.insert(k - 1, w)
            # the c = n - m state entries add c - 1 separators
            size += (_RECORD_FIXED + len(str(m)) + len(str(k)) + w + state
                     + len(_STATE_SEP) * (len(widths) - 1))
        return size

    def iter_json_lines(self) -> Iterator[str]:
        """One JSON record per merge step, rationals rendered as strings,
        produced one line at a time (the lines total O(n**2) characters).

        The rendered state is a list of strings replayed as the weights are:
        the last two entries go and the merged one is inserted at k."""
        inputs, merged = self._strs
        texts = list(inputs)
        join = _STATE_SEP.join
        for m, (k, text) in enumerate(zip(self.ks, merged), start=1):
            del texts[-2:]
            texts.insert(k - 1, text)
            yield _record(m, k, text, join(texts))

    def json_lines(self) -> list[str]:
        """All of :meth:`iter_json_lines` as a list."""
        return list(self.iter_json_lines())


@dataclass(frozen=True)
class LengthVector:
    """Positive, non-decreasing codeword lengths aligned with symbol order."""

    lengths: tuple[int, ...]

    def __post_init__(self):
        lengths = tuple(map(operator.index, self.lengths))
        object.__setattr__(self, "lengths", lengths)
        if not lengths:
            raise TooFewEntriesError("length vector cannot be empty")
        for l in lengths:
            if l < 1:
                raise NonPositiveEntryError(f"length {l} must be >= 1")
        for a, b in zip(lengths, lengths[1:]):
            if a > b:
                raise NotSortedError(f"lengths {a} > {b}: must be non-decreasing")

    def __len__(self) -> int:
        return len(self.lengths)

    def __iter__(self) -> Iterator[int]:
        return iter(self.lengths)

    def __getitem__(self, i: int) -> int:
        return self.lengths[i]


@dataclass(frozen=True)
class CodeBook:
    """Binary codewords aligned with symbol order."""

    codewords: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.codewords)

    def __iter__(self) -> Iterator[str]:
        return iter(self.codewords)


def huffman_lengths(dist: FiniteDistribution) -> LengthVector:
    """Codeword lengths of the standardized Huffman code (no trace)."""
    nums, _ = dist.common_numerators()
    depths, _, _ = kernel.run_merges(nums)
    return LengthVector(tuple(depths))


def huffman(dist: FiniteDistribution) -> tuple[LengthVector, MergeTrace]:
    """Standardized Huffman code lengths plus the integer merge trace."""
    trace = MergeTrace(*dist.common_numerators())
    return LengthVector(trace.lengths), trace


def kraft_sum(lengths: LengthVector | Iterable[int]) -> Fraction:
    """Exact sum of 2**(-l) over the vector."""
    if not isinstance(lengths, LengthVector):
        lengths = LengthVector(tuple(lengths))
    top = lengths[-1]  # the largest, lengths being non-decreasing
    return Fraction(sum(1 << (top - l) for l in lengths), 1 << top)


def expected_length(dist: FiniteDistribution, lengths: LengthVector | Iterable[int]) -> Fraction:
    """Exact sum of p_i * l_i."""
    if not isinstance(lengths, LengthVector):
        lengths = LengthVector(tuple(lengths))
    if len(lengths) != dist.n:
        raise SizeMismatchError(
            f"{dist.n} probabilities but {len(lengths)} lengths"
        )
    nums, den = dist.common_numerators()
    return Fraction(sum(v * l for v, l in zip(nums, lengths)), den)


def canonical_codebook(lengths: LengthVector | Iterable[int]) -> CodeBook:
    """Canonical codewords: symbols sorted by (length, index) receive
    lexicographically increasing words of their lengths."""
    if not isinstance(lengths, LengthVector):
        lengths = LengthVector(tuple(lengths))
    if kraft_sum(lengths) > 1:
        raise KraftViolationError(f"lengths {tuple(lengths)} exceed the Kraft budget")
    words = []
    code = 0
    prev = lengths[0]
    for l in lengths:  # non-decreasing by construction
        code <<= l - prev
        words.append(format(code, f"0{l}b"))
        code += 1
        prev = l
    return CodeBook(tuple(words))
