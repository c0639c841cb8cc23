"""Exact reading and rendering: ``exact_fraction`` on every argument type, and
``weight_strs`` and ``rat_str`` against ``str(Fraction)``."""

import json
import sys
from contextlib import contextmanager
from fractions import Fraction as F
from math import gcd

import pytest

from prefixcode import (
    AlphaSequence,
    Geometric,
    L1Classification,
    L1Interval,
    classify_l1,
    counterexample,
    delta_bounds,
    l1_lower_bound,
    truncate,
)
from prefixcode import numutil
from prefixcode.cli import run
from prefixcode.errors import OutOfRangeError, ParseError
from prefixcode.numutil import (
    SHARED_GCD_BITS,
    decimal_ceil,
    decimal_floor,
    decimal_str,
    exact_fraction,
    floor_log2,
    floor_neg_log2,
    rat_str,
    shared_divisor,
    weight_strs,
)
from test_huffman import reference_trace_lines


@contextmanager
def digit_limit(limit):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def reference(nums, den):
    with digit_limit(0):
        return [str(F(v, den)) for v in nums]


def test_random_weights(rng):
    for _ in range(300):
        # a denominator with many divisors, so that weights reduce often
        den = rng.randint(1, 10**rng.randint(1, 12)) * rng.choice((1, 720, 2**20))
        nums = [rng.randint(0, 4 * den) for _ in range(rng.randint(1, 10))]
        nums += [rng.randint(1, 40) * rng.choice((1, 2, 3, 4, 5, 6, den)) for _ in range(10)]
        nums += [0, den, -den, -rng.randint(1, den)]
        rng.shuffle(nums)
        assert weight_strs(nums, den) == reference(nums, den)
    assert weight_strs([], 7) == []


def coprime(v, den):
    """v with every factor it shares with den divided out."""
    while (g := gcd(v, den)) > 1:
        v //= g
    return v


def shared_gcd_lists(rng, bits):
    """(weights, denominator) pairs, the denominator of about ``bits`` bits,
    with shared divisors of 1, small ones, large factors of the denominator
    and the denominator itself, and with negative, zero and single values."""
    small = rng.choice((6, 720, 2**10 * 3**4))
    large = rng.getrandbits(max(bits // 3, 2)) | 1
    for factor in (1, small, large):
        rest = rng.getrandbits(bits) | 1 << (bits - 1)
        den = factor * coprime(rest, factor)
        nums = [coprime(rng.randint(1, den), den) for _ in range(rng.randint(1, 12))]
        # multiples of the factor or of a divisor of it: a shared divisor over 1
        nums += [coprime(rng.randint(1, den // factor), den) * rng.choice((factor, 2, 3))
                 for _ in range(rng.randint(0, 6) if factor > 1 else 0)]
        rng.shuffle(nums)
        yield nums + [den], den  # den itself renders as 1
        yield [-v for v in nums[:3]] + nums[3:], den
        yield nums[:1], den
        yield nums + [0], den
        yield nums + [-den, 3 * den], den


def test_weight_strs_is_fractions_str_over_a_shared_gcd(rng):
    kinds = set()
    for bits in (8, 40, 64, 65, 66, 200, 700, 2000, 4096, 4097, 5000):
        for _ in range(4):
            for nums, den in shared_gcd_lists(rng, bits):
                assert weight_strs(nums, den) == reference(nums, den)
                shared = shared_divisor(nums, den)
                assert den % shared == 0
                assert all(gcd(v, den) == gcd(v, shared) for v in nums if v != den)
                if den.bit_length() in SHARED_GCD_BITS:
                    kinds.add(1 if shared == 1 else "den" if shared == den else "between")
    assert kinds == {1, "between", "den"}
    assert weight_strs([5, -2, 0], 1) == ["5", "-2", "0"]
    assert weight_strs([2**70, 2**69], 2**70) == ["1", "1/2"]


def test_a_truncation_renders_with_one_gcd_of_its_denominator(monkeypatch):
    # its input weights are in lowest terms over the shared denominator, so
    # the shared gcd is 1 and is the one gcd taken with the denominator;
    # outside SHARED_GCD_BITS every weight takes one
    calls = []

    def counting(*args):
        calls.append(args)
        return gcd(*args)

    monkeypatch.setattr(numutil, "gcd", counting)
    for n, gcds in ((300, 1), (20, 20), (2100, 2100)):
        dist = truncate(Geometric(F(1, 4)), n)
        calls.clear()
        assert weight_strs(dist.nums, dist.den) == reference(dist.nums, dist.den)
        assert sum(dist.den in args for args in calls) == gcds


def test_a_lifted_limit_covers_the_shared_gcd():
    with digit_limit(640):
        for den in (10**700 + 3 * 7, 7**2000):  # 2326 and 5615 bits
            nums = [den - 1, 3 * 7 * 5, 7 * 10**699, den, -1]
            assert weight_strs(nums, den) == reference(nums, den)
            assert sys.get_int_max_str_digits() == 640


def test_values_past_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    den = 10**5000 + 3
    nums = [1, den - 1, 10**4999, 7 * den, 3 * den + 1]
    got = weight_strs(nums, den)
    assert got == reference(nums, den)
    assert len(got[1]) > 2 * 5000 and got[3] == "7"
    assert sys.get_int_max_str_digits() == limit
    nums = [2**19999, 3, 2**20000]  # 1/2 and 1 reduce to short strings
    assert weight_strs(nums, 2**20000) == reference(nums, 2**20000)
    assert rat_str(F(1, den)) == reference([1], den)[0]
    assert sys.get_int_max_str_digits() == limit


def test_limit_is_lifted_once_per_list_and_only_when_needed(monkeypatch):
    calls = []
    with digit_limit(4300):
        monkeypatch.setattr(sys, "set_int_max_str_digits", calls.append)
        weight_strs([1, 2, 3], 10**4300 - 1)  # 4300 digits: at the limit
        monkeypatch.undo()
    assert calls == []
    with digit_limit(640):
        den = 10**700 + 1
        nums = [den - 1, 5, 10**699]
        assert weight_strs(nums, den) == reference(nums, den)
        assert sys.get_int_max_str_digits() == 640
        calls = []
        setter = sys.set_int_max_str_digits

        def recording(limit):
            calls.append(limit)
            setter(limit)

        monkeypatch.setattr(sys, "set_int_max_str_digits", recording)
        weight_strs(nums, den)
        monkeypatch.undo()
        assert calls == [0, 640]


def test_trace_file_renders_as_fractions(capsys, tmp_path):
    path = tmp_path / "trace.jsonl"
    assert run(["analyze", "geom:1/4", "--truncate", "300", "--trace", str(path)]) == 0
    probs = json.loads(capsys.readouterr().out)["results"]["probs"]
    dist = truncate(Geometric(F(1, 4)), 300)
    assert probs == [str(p) for p in dist.probs]
    assert path.read_text(encoding="utf-8").splitlines() == reference_trace_lines(dist)


def test_fraction_input_builds_no_fraction(monkeypatch):
    x = F(-3, 7)

    def fail(cls, *args, **kwargs):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(F, "__new__", fail)
    assert exact_fraction(x) is x
    assert rat_str(x) == "-3/7"
    monkeypatch.undo()
    assert [rat_str(v) for v in (3, "0.4", 0.5, F(6, 4))] == ["3", "2/5", "1/2", "3/2"]
    assert exact_fraction(0.4) == F(2, 5)
    assert exact_fraction(3) == F(3) and exact_fraction("-2/6") == F(-1, 3)


def test_a_float_argument_reads_as_its_shortest_decimal(rng):
    # floats in (0, 1): a few named ones and seeded ones of at most six decimals
    floats = [0.4, 0.5, 0.1, 0.3, 1e-5] + [rng.randint(1, 999_999) / 10**6 for _ in range(60)]
    for x, y in zip(floats, floats[::-1]):
        fx, fy = F(repr(x)), F(repr(y))
        assert classify_l1(x) == classify_l1(fx)
        for k in range(1, 7):
            assert L1Interval(k).contains(x) is L1Interval(k).contains(fx)
        assert l1_lower_bound(x) == l1_lower_bound(fx)
        for a, b in ((x, y), (y, x), (x, x)):
            fa, fb = F(repr(a)), F(repr(b))
            assert delta_bounds(x, 10, a=a, b=b) == delta_bounds(fx, 10, a=fa, b=fb)
        assert floor_neg_log2(x) == floor_neg_log2(fx)
        assert rat_str(x) == rat_str(fx)
        for render in (decimal_floor, decimal_ceil, decimal_str):
            assert render(x, 3) == render(fx, 3)


def test_an_interval_endpoint_given_as_a_float_stays_in_its_gap():
    # 0.4 is 2/5, the open lower end of interval 1; its binary expansion
    # lies just above it
    assert classify_l1(0.4) == L1Classification(k=None, gap=(1, 2))
    assert not L1Interval(1).contains(0.4)
    assert delta_bounds(0.2, 10, b=0.3) == (F(20, 3), None)


@pytest.mark.parametrize("call, argv", [
    (lambda: Geometric("1e-100001"), ["analyze", "geom:1e-100001", "--truncate", "4"]),
    (lambda: AlphaSequence(("2/5", "1e-100001")),
     ["converge", "--spec", "alpha:[2/5,1e-100001]", "--depth", "2"]),
    (lambda: counterexample(1, "1/0"), ["counterexample", "1", "--epsilon", "1/0"]),
    (lambda: exact_fraction(float("nan")), ["classify-l1", "nan"]),
])
def test_a_library_string_follows_the_cli_grammar(capsys, call, argv):
    assert run(argv) == 2
    err = capsys.readouterr().err
    with pytest.raises(ParseError) as got:
        call()
    assert err == f"error: {got.value}\n"
    assert str(got.value).startswith("cannot parse rational ")


def test_a_library_string_is_stripped_as_the_cli_strips_it():
    assert Geometric(" 1/4 ") == Geometric(F(1, 4))


def reference_floor_neg_log2(a, b):
    """The largest t with a * 2**t <= b, by counting up from 0."""
    t = 0
    while a << (t + 1) <= b:
        t += 1
    return t


def test_floor_neg_log2_matches_the_count(rng):
    for b in range(1, 301):
        for a in range(1, b + 1):
            assert floor_neg_log2(F(a, b)) == reference_floor_neg_log2(a, b)
    for t in range(400):
        assert floor_neg_log2(F(1, 2**t)) == t
        assert floor_neg_log2(F(3, 2**(t + 2))) == t
    for _ in range(300):
        b = rng.getrandbits(200) | 1 << 199
        a = rng.randint(1, b >> rng.randrange(200))
        assert floor_neg_log2(F(a, b)) == reference_floor_neg_log2(a, b)
    for p in (F(0), F(-1, 2), F(3, 2)):
        with pytest.raises(OutOfRangeError, match="0 < p <= 1"):
            floor_neg_log2(p)


def test_floor_log2():
    assert [floor_log2(n) for n in (1, 2, 3, 4, 7, 8, 2**100)] == [0, 1, 1, 2, 2, 3, 100]
    for n in (0, -1):
        with pytest.raises(OutOfRangeError, match="n >= 1"):
            floor_log2(n)


def test_decimal_renderings():
    x = F(5, 8)  # 0.625
    assert (decimal_floor(x, 2), decimal_ceil(x, 2), decimal_str(x, 2)) == ("0.62", "0.63", "0.63")
    assert (decimal_floor(x, 0), decimal_ceil(x, 0), decimal_str(x, 0)) == ("0", "1", "1")
    assert decimal_str(F(3, 2), 0) == "2" and decimal_str(F(1, 3), 0) == "0"
    assert decimal_floor(F(1, 3), 3) == "0.333" and decimal_ceil(F(0), 3) == "0.000"
    for render in (decimal_floor, decimal_ceil, decimal_str):
        with pytest.raises(OutOfRangeError, match="non-negative"):
            render(F(-1, 3), 2)
