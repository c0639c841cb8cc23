"""Distribution files: the integer reader against the Fraction reference."""

import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest

from prefixcode import validate
from prefixcode.errors import (
    NonPositiveEntryError,
    NotNormalizedError,
    NotSortedError,
    ParseError,
    PrefixCodeError,
    TooFewEntriesError,
)
from prefixcode.fileio import _shared_denominator, read_distribution_file
from prefixcode.numutil import MAX_EXPONENT, exact_fraction

ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))


def reference_read(path):
    """The reader as it was before the integer path: one ``Fraction`` per
    line through ``exact_fraction``, then ``validate``."""
    text = Path(path).read_text(encoding="utf-8-sig")
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


def _decimal(v: int, total: int) -> str:
    """Exact decimal of v/total < 1, for total dividing a power of 10."""
    places = 0
    while 10**places % total:
        places += 1
    return f"0.{v * (10**places // total):0{places}d}"


def _render(rng, v: int, total: int) -> str:
    """One way of writing v/total that the file format accepts."""
    style = rng.randrange(8)
    if style == 0:  # unreduced a/b
        k = rng.randint(2, 9)
        return f"{k * v}/{k * total}"
    if style == 1:
        return f"+{v}/{total}"
    if style == 2:  # digit groups
        return "_".join(str(v)) + "/" + str(total)
    if style == 3:
        return _decimal(v, total)
    if style == 4:  # exponent
        digits = _decimal(v, total)[2:]
        return f"{int(digits)}e-{len(digits)}"
    if style == 5:
        return f"{v}/{total}".translate(ARABIC_INDIC)
    return f"{v}/{total}"


def random_file(rng, n: int) -> str:
    """A valid file over a denominator dividing a power of 10, mixing every
    accepted form of a line with padding, comments, blank lines and CRLF."""
    total = rng.choice((10, 40, 80, 200, 1000, 1250, 10**6))
    cuts = sorted(rng.sample(range(1, total), n - 1))
    weights = sorted((b - a for a, b in zip([0] + cuts, cuts + [total])), reverse=True)
    lines = ["\ufeff# byte-order mark"] if rng.random() < 0.2 else []
    pads = ("", " ", "  ", "\t")
    for v in weights:
        if rng.random() < 0.2:
            lines.append(rng.choice(("", "   ", "# a comment", "\t")))
        lines.append(rng.choice(pads) + _render(rng, v, total) + rng.choice(pads))
    newline = rng.choice(("\n", "\r\n"))
    return newline.join(lines) + rng.choice(("", newline))


def test_reader_equals_the_reference_on_random_files(rng, tmp_path):
    path = tmp_path / "dist.txt"
    for _ in range(300):
        path.write_text(random_file(rng, rng.randint(2, 9)), encoding="utf-8", newline="")
        got, want = read_distribution_file(path), reference_read(path)
        assert got == want
        assert (got.nums, got.den) == (want.nums, want.den)
        assert hash(got) == hash(want)


def test_unreduced_lines_over_different_denominators(tmp_path):
    path = tmp_path / "dist.txt"
    path.write_text("2/4\n3/12\n50/200\n", encoding="utf-8")
    dist = read_distribution_file(path)
    assert (dist.nums, dist.den) == ((2, 1, 1), 4)
    assert dist == reference_read(path)


@pytest.mark.parametrize("text, error, lineno", [
    ("1/2\n1/0\n", ParseError, 2),
    ("1/2\n5 / 3\n", ParseError, 2),
    ("abc\n", ParseError, 1),
    ("1/2\n\n#\n1/2/3\n", ParseError, 4),
    ("1/2\n\u00b2/4\n", ParseError, 2),  # a digit that int() rejects
    ("1/2\n-1/4\n3/4\n", NonPositiveEntryError, None),
    ("1/2\n0/3\n1/2\n", NonPositiveEntryError, None),
    ("1/4\n3/4\n", NotSortedError, None),
    ("1\n1\n", NotNormalizedError, None),
    ("1/2\n1/4\n", NotNormalizedError, None),
    ("1/1\n", TooFewEntriesError, None),
    ("# nothing\n", TooFewEntriesError, None),
], ids=["zero-den", "spaces", "abc", "two-slashes", "superscript", "negative", "zero", "unsorted",
        "integers", "not-normalized", "one-entry", "empty"])
def test_bad_file_raises_what_the_reference_raises(tmp_path, text, error, lineno):
    path = tmp_path / "dist.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(PrefixCodeError) as want:
        reference_read(path)
    with pytest.raises(PrefixCodeError) as got:
        read_distribution_file(path)
    assert type(got.value) is type(want.value) is error
    assert str(got.value) == str(want.value)
    if lineno is not None:
        assert str(got.value).startswith(f"{path}:{lineno}: cannot parse rational")


SHARED_DENOMINATOR_FILES = {
    "plain": "3/8\n3/8\n1/8\n1/8\n",
    "den-suffix-of-another": "2/4\n7/14\n",
    "den-ends-another": "7/14\n2/4\n",
    "den-prefix-of-another": "1/2\n14/28\n",
    "den-starts-another": "14/28\n1/2\n",
    "leading-zero-den": "3/04\n1/04\n",
    "leading-zero-den-mixed": "3/04\n1/4\n",
    "leading-zero-num": "03/4\n001/4\n",
    "den-0": "1/0\n1/0\n",
    "den-00": "1/00\n1/00\n",
    "zero-num": "1/2\n1/2\n0/2\n",
    "empty-num": "1/2\n/2\n1/2\n",
    "empty-first-num": "/2\n1/2\n",
    "empty-den": "1/\n1/\n",
    "no-final-newline": "1/2\n1/2",
    "crlf": "1/2\r\n1/2\r\n",
    "cr": "1/2\r1/2\r",
    "bom": "\ufeff1/2\n1/2\n",
    "inner-bom": "1/2\n\ufeff1/2\n",
    "blank-line": "1/2\n\n1/2\n",
    "trailing-blank-line": "1/2\n1/2\n\n",
    "only-newline": "\n",
    "comment": "# head\n1/2\n1/2\n",
    "comment-ending-in-den": "1/2\n# 1/2\n1/2\n",
    "last-line-without-den": "1/2\n1",
    "integer-line": "1/2\n1\n",
    "integer-line-normalized": "1/3\n1/3\n1\n",
    "integer-line-inside": "2/4\n1\n1/4\n",
    "integer-line-last-normalized": "2/4\n1/4\n1\n",
    "padded": " 1/2\n1/2\n",
    "inner-space": "1 1/4\n2/4\n",
    "padded-den": "1/2 \n1/2 \n",
    "vertical-tab": "1/2\x0b1/2\n",
    "sign": "+1/2\n1/2\n",
    "digit-groups": "1_0/20\n10/20\n",
    "two-slashes": "1/2/2\n1/2\n",
    "arabic-indic-num": "1/2\n\u0661/2\n",
    "arabic-indic-den": "1/\u0662\n1/\u0662\n",
    "superscript-num": "1/2\n\u00b9/2\n",
    "not-normalized": "1/3\n1/3\n",
    "unsorted": "1/4\n3/4\n",
    "one-line": "1/1\n",
    "num-past-digit-limit": "1/2\n" + "0" * 4999 + "1/2\n",
    "den-past-digit-limit": "1/" + "0" * 4999 + "2\n1/" + "0" * 4999 + "2\n",
}


@pytest.mark.parametrize("text", SHARED_DENOMINATOR_FILES.values(),
                         ids=SHARED_DENOMINATOR_FILES.keys())
def test_shared_denominator_file_reads_as_the_reference(tmp_path, text):
    path = tmp_path / "dist.txt"
    path.write_text(text, encoding="utf-8", newline="")
    try:
        want = reference_read(path)
    except PrefixCodeError as exc:
        with pytest.raises(PrefixCodeError) as got:
            read_distribution_file(path)
        assert type(got.value) is type(exc)
        assert str(got.value) == str(exc)
    else:
        got = read_distribution_file(path)
        assert (got.nums, got.den) == (want.nums, want.den)


def test_whole_file_read_peaks_below_the_line_loop(rng, tmp_path):
    # the same 4096 lines, the second file behind a comment line, which
    # sends it through the line loop
    weights = sorted((rng.randint(1, 10**6) for _ in range(4096)), reverse=True)
    text = "".join(f"{w}/{sum(weights)}\n" for w in weights)
    whole, lines = tmp_path / "whole.txt", tmp_path / "lines.txt"
    whole.write_text(text, encoding="utf-8")
    lines.write_text("# comment\n" + text, encoding="utf-8")
    assert _shared_denominator(text) is not None
    assert _shared_denominator("# comment\n" + text) is None
    dists, peaks = [], []
    for path in (whole, lines):
        tracemalloc.start()
        try:
            dists.append(read_distribution_file(path))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert dists[0] == dists[1]
    assert peaks[0] <= peaks[1]


@pytest.mark.parametrize("text, literal", [
    (" 5 / 3 ", "5 / 3"),
    ("5/ 3", "5/ 3"),
    ("1\t/2", "1\t/2"),
    ("1 000", "1 000"),
])
def test_whitespace_inside_a_literal_is_rejected(text, literal):
    # Python 3.12 and later accept "5 / 3"; the grammar and message stay
    # those of Python 3.11
    with pytest.raises(ParseError) as got:
        exact_fraction(text)
    assert str(got.value) == (
        f"cannot parse rational {text!r}: Invalid literal for Fraction: {literal!r}")


def test_exponent_is_capped_before_fraction_runs():
    assert exact_fraction(f"1e-{MAX_EXPONENT}") == F(1, 10**MAX_EXPONENT)
    assert exact_fraction(f"2.5E+{MAX_EXPONENT}") == 25 * 10**(MAX_EXPONENT - 1)
    for literal in (f"1e-{MAX_EXPONENT + 1}", f"-.5E{MAX_EXPONENT + 1}",
                    "1e1_000_000_000", "3.e+0100001"):
        with pytest.raises(ParseError) as got:
            exact_fraction(literal)
        assert str(got.value) == (f"cannot parse rational {literal!r}:"
                                  f" its exponent exceeds the limit of {MAX_EXPONENT}")
    # a literal outside Fraction's grammar keeps Fraction's message
    for literal in ("1/2e9999999", "abce9999999", "1e_9999999", "1e9999999_"):
        with pytest.raises(ParseError) as got:
            exact_fraction(literal)
        assert str(got.value).endswith(f"Invalid literal for Fraction: {literal!r}")


def test_line_past_the_digit_limit_is_a_parse_error(tmp_path):
    path = tmp_path / "dist.txt"
    path.write_text("1/2\n1/" + "2" * 5000 + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as want:
        reference_read(path)
    with pytest.raises(ParseError) as got:
        read_distribution_file(path)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(f"{path}:2: cannot parse rational")


def test_digit_lines_build_no_fraction(rng, tmp_path, monkeypatch):
    weights = sorted((rng.randint(1, 10**6) for _ in range(4096)), reverse=True)
    total = sum(weights)
    path = tmp_path / "dist.txt"
    built = []
    new = F.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    for end in ("\n", ""):  # with and without a final newline
        path.write_text("\n".join(f"{w}/{total}" for w in weights) + end, encoding="utf-8")
        monkeypatch.setattr(F, "__new__", counting)
        dist = read_distribution_file(path)
        monkeypatch.undo()
        assert built == []
        assert dist == reference_read(path)
