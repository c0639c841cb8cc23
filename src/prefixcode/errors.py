"""Exception types shared across the package."""

from __future__ import annotations

from fractions import Fraction


class PrefixCodeError(Exception):
    """Base class for all domain errors raised by prefixcode."""


class ParseError(PrefixCodeError):
    """Malformed rational (library argument or CLI string), file, or source literal."""


class NotSortedError(PrefixCodeError):
    """Probabilities are not in non-increasing order."""


class NotNormalizedError(PrefixCodeError):
    """Probabilities do not sum to exactly 1; carries the exact deficit."""

    def __init__(self, total: Fraction):
        # numutil imports this module, so its renderer is looked up late
        from prefixcode.numutil import rat_str

        self.total = total
        self.deficit = 1 - total
        super().__init__(
            f"probabilities sum to {rat_str(total)} (deficit {rat_str(self.deficit)})"
        )


class NonPositiveEntryError(PrefixCodeError):
    """A probability entry is zero or negative."""


class TooFewEntriesError(PrefixCodeError):
    """Fewer entries than the operation requires."""


class TailNotComputableError(PrefixCodeError):
    """An infinite source literal was given where a finite distribution is
    needed, without a truncation size (`--truncate`)."""


class AlphaOutOfRangeError(PrefixCodeError):
    """A conditional ratio lies outside the open interval (0, 1)."""


class PrefixMassReachesOneError(PrefixCodeError):
    """A partial sum of the prefix reaches or exceeds 1."""


class EpsilonOutOfRangeError(PrefixCodeError):
    """The perturbation parameter lies outside the family's stated range."""


class SizeMismatchError(PrefixCodeError):
    """Aligned sequences have different sizes."""


class KraftViolationError(PrefixCodeError):
    """Codeword lengths exceed the Kraft budget."""


class TrivialCaseError(PrefixCodeError):
    """The top probability is at least 1/2, so its codeword length is 1."""


class OutOfRangeError(PrefixCodeError):
    """A scalar argument lies outside its admissible range."""


class UniverseTooLargeError(PrefixCodeError):
    """The brute-force enumeration universe is too large to certify."""
