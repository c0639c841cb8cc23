"""Distribution files and source literals.

File format: UTF-8 text (a leading byte-order mark is skipped), one rational
per line, either "a/b" or a decimal literal (parsed exactly, so 0.4 means
2/5); lines starting with '#' and blank lines are ignored.  A file made only of
"a/D" lines over one shared denominator D (every "w/W" export has that
shape, with or without a final newline) is read whole into integers; any
other file is read line by line through
:func:`prefixcode.numutil.exact_fraction`, the package's one reader of
rationals, with the same values and the same ``path:lineno:`` messages.

Source literals: "geom:a/b", "alpha:[a/b,c/d,...]" (a finite list; the last
ratio repeats forever), or "file:PATH" for a finite distribution.
"""

from __future__ import annotations

from pathlib import Path

from prefixcode.distributions import FiniteDistribution, validate
from prefixcode.errors import ParseError
from prefixcode.numutil import exact_fraction
from prefixcode.sources import AlphaSequence, Geometric, SourceSpec


def _shared_denominator(text: str) -> FiniteDistribution | None:
    """The weights of a text made only of "a/D" lines over one nonzero
    denominator D; None for any other text.  A missing final newline is
    added first, so an export that ends without one reads whole too.

    One split of the text on "/D\\n" decides the shape and one
    ``map(int, ...)`` converts the numerators: no regex and no per-line
    loop, which keeps the peak memory of a 4096-line file below the line
    loop's.
    """
    if not text.endswith("\n"):
        text += "\n"
    _, slash, den = text[:text.find("\n")].partition("/")
    if not (slash and den.isdigit() and den.strip("0")):
        return None
    pieces = text.split(f"/{den}\n")
    # every line ends in "/D\n", so the last piece is empty, and every other
    # piece is one run of digits: a line without "/D" (such as a plain
    # integer) or over another denominator joins a piece with a newline or
    # is left behind the last "/D\n", and an empty numerator leaves an
    # empty piece.  Non-ASCII digits read as Fraction reads them, or fail
    # int() below.
    if pieces.pop() or not all(map(str.isdigit, pieces)):
        return None
    try:
        nums = tuple(map(int, pieces))
        den = int(den)
    except ValueError:  # a literal past the int-to-str digit limit
        return None
    return FiniteDistribution(nums, den)


def read_distribution_file(path: str | Path) -> FiniteDistribution:
    """Read one rational per line; '#' comments and blank lines allowed.

    A file of "a/D" lines over one shared denominator is converted whole
    (see :func:`_shared_denominator`).  Any other file goes line by line
    through :func:`exact_fraction` and :func:`validate`.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None
    dist = _shared_denominator(text)
    if dist is not None:
        return dist
    probs = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            probs.append(exact_fraction(line))
        except ParseError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
    return validate(probs)


def parse_source(text: str) -> FiniteDistribution | SourceSpec:
    """Resolve a source literal to a finite distribution or a spec."""
    text = text.strip()
    if text.startswith("geom:"):
        return Geometric(exact_fraction(text[len("geom:") :]))
    if text.startswith("alpha:"):
        body = text[len("alpha:") :].strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ParseError(f"alpha literal must look like alpha:[a/b,...], got {text!r}")
        inner = body[1:-1]
        if not inner.strip():
            raise ParseError("alpha literal needs at least one ratio")
        return AlphaSequence(tuple(map(exact_fraction, inner.split(","))))
    if text.startswith("file:"):
        return read_distribution_file(text[len("file:") :])
    raise ParseError(
        f"unrecognized source {text!r}; expected geom:a/b, alpha:[...], or file:PATH"
    )
