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
from itertools import accumulate
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
from prefixcode.numutil import shared_divisor, weight_strs


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

# the end of every record, after its last state entry
RECORD_END = '"]}'


def _header(m: object, k: object, merged: str) -> str:
    """A trace line up to its first state entry: merge m, its insertion
    index k and the unquoted merged weight."""
    return f'{{"m": {m}, "k": {k}, "merged": "{merged}", "state": ["'


# characters of a written trace line (with its newline) outside its fields
_RECORD_FIXED = len(_header("", "", "") + RECORD_END + "\n")


def _digits_floor(t: int) -> int:
    """Fewest decimal digits of an integer of at least 2**t."""
    # 30102999/10**8 < log10(2)
    return 1 + max(t, 0) * 30102999 // 10**8


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
    input weights' strings to a report) and come from one replay,
    :meth:`line_parts`.  Merged sums never decrease, so every entry before
    the one merge m inserts at k is a leaf above its sum: the input weights
    ``nums[:k-1]``.  A line is thus its header, a prefix of one joined
    rendering of the input weights, and the joined rest of the state.
    Three sizes bound the lines before any is written, cheapest first, each
    one replay of the state's widths (:meth:`_size`):
    :meth:`json_size_ceiling` with every weight at the widest any can take,
    :meth:`json_size_floor` at widths from bit lengths, and
    :meth:`json_size` at the rendered strings'.
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

    def json_size_floor(self, limit: int | None = None) -> int:
        """A lower bound on :meth:`json_size` with no weight rendered.

        A weight v < den renders as a/b, a = v/g and b = den/g for
        g = gcd(v, den), and the weight den as ``1``.  With g <= 2**c,
        a >= 2**(t - c) for t = v.bit_length() - 1, and b >= 2**(s - min(c,
        t + 1)) for s = den.bit_length() - 1, as g <= v < 2**(t + 1); each
        has at least the digits of that power of two.  G, the
        :func:`~prefixcode.numutil.shared_divisor` of the input weights or
        of the merged ones, gives c (g divides G).  On a truncation's inputs
        G is 1, so c = 0 and the bound on each weight is the one bit lengths
        give for a and b in full.

        Computing G costs about a gcd per weight.  So when ``limit`` is given
        and the bound with G = den, from bit lengths alone, already passes
        it, that bound is returned instead.
        """
        den = self.den
        if limit is not None:
            floor = self._floor(den, den)
            if floor > limit:
                return floor
        return self._floor(shared_divisor(self.nums, den), shared_divisor(self.sums, den))

    def _floor(self, inputs_shared: int, sums_shared: int) -> int:
        """:meth:`json_size_floor` with the gcd of each input weight and
        ``den`` dividing ``inputs_shared``, and of each merged weight and
        ``den`` dividing ``sums_shared``."""
        den = self.den
        s = den.bit_length() - 1

        def widths(nums: Iterable[int], shared: int) -> list[int]:
            c = (shared - 1).bit_length()  # shared <= 2**c
            return [1 if v == den else
                    _digits_floor(v.bit_length() - 1 - c) + 1
                    + _digits_floor(s - min(c, v.bit_length()))
                    for v in nums]

        return self._size(widths(self.nums, inputs_shared), widths(self.sums, sums_shared))

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

    def line_parts(self) -> tuple[str, Iterator[tuple[str, int, str]]]:
        """The JSON lines of :meth:`iter_json_lines` in parts, from one
        replay: the input weights joined as state entries, with a separator
        after each, and for each line its header, the end in that string of
        its leading entries ``nums[:k-1]``, and its other entries joined.
        A line is its header, that prefix, the rest and ``RECORD_END``.

        The rendered state is a list of strings replayed as the weights are:
        the last two entries go and the merged one is inserted at k."""
        inputs, merged = self._strs
        ends = [0, *accumulate(len(text) + len(_STATE_SEP) for text in inputs)]

        def parts() -> Iterator[tuple[str, int, str]]:
            texts = list(inputs)
            join = _STATE_SEP.join
            for m, (k, text) in enumerate(zip(self.ks, merged), start=1):
                del texts[-2:]
                texts.insert(k - 1, text)
                yield _header(m, k, text), ends[k - 1], join(texts[k - 1:])

        return _STATE_SEP.join([*inputs, ""]), parts()

    def iter_json_lines(self) -> Iterator[str]:
        """One JSON record per merge step, rationals rendered as strings,
        produced one line at a time (the lines total O(n**2) characters)."""
        lead, parts = self.line_parts()
        for header, end, rest in parts:
            yield f"{header}{lead[:end]}{rest}{RECORD_END}"

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
