"""Infinite source generators, truncation, and the alpha parameterization."""

from fractions import Fraction as F
from math import prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from prefixcode import (
    AlphaSequence,
    AlphaVector,
    ExplicitHead,
    Geometric,
    check_infinite_tail,
    from_alphas,
    to_alphas,
    truncate,
)
from prefixcode import sources
from prefixcode.convergence import _sweep
from prefixcode.errors import (
    AlphaOutOfRangeError,
    NotSortedError,
    OutOfRangeError,
    PrefixMassReachesOneError,
    TooFewEntriesError,
)
from randgen import random_source

alphas_strategy = st.lists(
    st.fractions(min_value=F(1, 100), max_value=F(99, 100), max_denominator=100),
    min_size=1,
    max_size=10,
)


class TestGeometric:
    def test_truncate_examples(self):
        g = Geometric(F(1, 2))
        assert truncate(g, 2).probs == (F(2, 3), F(1, 3))
        assert truncate(g, 3).probs == (F(4, 7), F(2, 7), F(1, 7))

    def test_closed_forms_match_direct_sums(self):
        g = Geometric(F(2, 7))
        for n in range(1, 12):
            assert g.head_sum(n) == sum(g.prefix_probs(n))
            assert g.tail_after(n) == 1 - g.head_sum(n)
            assert g.prob(n) == g.prefix_probs(n)[-1]

    def test_ratio_is_top_probability(self):
        assert Geometric(F(1, 4)).prob(1) == F(1, 4)
        assert Geometric(F(1, 5)).tail_after(2) == F(16, 25)

    def test_ratio_validation(self):
        for bad in (F(0), F(1), F(5, 4), F(-1, 2)):
            with pytest.raises(OutOfRangeError):
                Geometric(bad)


class TestAlphaOps:
    def test_constant_half_gives_dyadic(self):
        assert from_alphas([F(1, 2)] * 3, 3) == (F(1, 2), F(1, 4), F(1, 8))

    def test_tie_pair(self):
        assert from_alphas([F(1, 3), F(1, 2)], 2) == (F(1, 3), F(1, 3))

    def test_product_evaluation(self):
        alphas = [F(2, 5)] * 3
        got = from_alphas(alphas, 3)
        # independent one-line recomputation
        expect = tuple(
            alphas[m] * F(3, 5) ** m for m in range(3)
        )
        assert got == (F(2, 5), F(6, 25), F(18, 125)) == expect

    def test_residual_mass_identity(self, rng):
        for _ in range(25):
            alphas = [F(rng.randint(1, 99), 100) for _ in range(rng.randint(1, 8))]
            n = len(alphas)
            prefix = from_alphas(alphas, n)
            residual = F(1)
            for a in alphas:
                residual *= 1 - a
            assert 1 - sum(prefix) == residual

    @given(alphas_strategy)
    def test_round_trip(self, alphas):
        vec = AlphaVector(tuple(alphas))
        prefix = from_alphas(vec, len(alphas))
        assert to_alphas(prefix).alphas == vec.alphas

    def test_geometric_inverse(self):
        assert to_alphas([F(1, 2), F(1, 4), F(1, 8)]).alphas == (F(1, 2),) * 3

    def test_prefix_mass_reaches_one(self):
        with pytest.raises(PrefixMassReachesOneError):
            to_alphas([F(1, 2), F(1, 4), F(1, 4)])

    def test_alpha_range_validation(self):
        for bad in (F(0), F(1), F(3, 2)):
            with pytest.raises(AlphaOutOfRangeError):
                AlphaVector((F(1, 2), bad))
        with pytest.raises(TooFewEntriesError):
            AlphaVector(())
        with pytest.raises(OutOfRangeError, match="not strictly positive"):
            to_alphas([F(1, 2), F(0)])

    def test_from_alphas_needs_enough_entries(self):
        with pytest.raises(TooFewEntriesError):
            from_alphas([F(1, 2)], 2)
        with pytest.raises(OutOfRangeError, match="n must be positive"):
            from_alphas([F(1, 2)], 0)


class TestAlphaSequence:
    def test_constant_half_truncation(self):
        d = truncate(AlphaSequence((F(1, 2),)), 3)
        assert d.probs == (F(4, 7), F(2, 7), F(1, 7))

    def test_matches_geometric_truncations(self, rng):
        for _ in range(20):
            ratio = F(rng.randint(1, 99), 100)
            n = rng.randint(2, 20)
            assert truncate(Geometric(ratio), n) == truncate(AlphaSequence((ratio,)), n)

    def test_last_ratio_repeats(self):
        s = AlphaSequence((F(1, 2), F(2, 5)))
        assert s.alpha_at(1) == F(1, 2)
        assert s.alpha_at(2) == F(2, 5)
        assert s.alpha_at(9) == F(2, 5)

    def test_rejects_increasing_probabilities(self):
        with pytest.raises(NotSortedError):
            AlphaSequence((F(2, 5), F(9, 10)))

    def test_closed_forms(self):
        s = AlphaSequence((F(1, 2), F(2, 5)))
        for n in range(1, 10):
            assert s.head_sum(n) == sum(s.prefix_probs(n))
            assert s.tail_after(n) == 1 - s.head_sum(n)

    def test_prefix_is_sorted(self, rng):
        for _ in range(20):
            first = F(rng.randint(30, 90), 100)
            second_cap = first / (1 - first)
            hi = min(F(99, 100), second_cap)
            second = F(rng.randint(30, int(hi * 100)), 100)
            s = AlphaSequence((first, second))
            probs = s.prefix_probs(12)
            assert all(a >= b for a, b in zip(probs, probs[1:]))


class TestExplicitHead:
    def test_prob_stitching(self):
        s = ExplicitHead((F(1, 3),), F(1, 2))
        assert s.prob(1) == F(1, 3)
        assert s.prob(2) == F(1, 3)  # (2/3) * 1/2
        assert s.prob(3) == F(1, 6)
        assert s.prefix_probs(4) == [F(1, 3), F(1, 3), F(1, 6), F(1, 12)]

    def test_head_sum_across_boundary(self):
        s = ExplicitHead((F(1, 2), F(1, 4)), F(1, 2))
        for n in range(1, 10):
            assert s.head_sum(n) == sum(s.prefix_probs(n))
        assert s.tail_after(2) == F(1, 4)

    def test_alphas_cover(self):
        s = ExplicitHead((F(1, 2), F(1, 4)), F(1, 3))
        assert s.alphas_cover().alphas == (F(1, 2), F(1, 2), F(1, 3))

    def test_rejects_tail_jump(self):
        # remaining mass 2/3 at ratio 3/4 gives a first tail entry of 1/2 > 1/3
        with pytest.raises(NotSortedError):
            ExplicitHead((F(1, 3),), F(3, 4))

    def test_rejects_saturated_head(self):
        with pytest.raises(PrefixMassReachesOneError):
            ExplicitHead((F(1, 2), F(1, 2)), F(1, 2))

    def test_truncation_validates(self):
        d = truncate(ExplicitHead((F(1, 3),), F(1, 2)), 5)
        assert sum(d.probs) == 1

    @pytest.mark.parametrize("head, ratio, error", [
        ((), F(1, 2), TooFewEntriesError),
        ((F(1, 3),), F(3, 2), OutOfRangeError),
        # a last head entry of 0 is refused as such, not as a tail jump
        ((F(1, 3), F(0)), F(1, 2), OutOfRangeError),
        ((F(1, 4), F(1, 3)), F(1, 2), NotSortedError),
        ((F(1, 2), F(1, 2)), F(1, 2), PrefixMassReachesOneError),
        ((F(1, 3),), F(3, 4), NotSortedError),
    ], ids=["empty", "ratio", "zero-entry", "unsorted", "saturated", "tail-jump"])
    def test_each_violation_has_its_type(self, head, ratio, error):
        with pytest.raises(error):
            ExplicitHead(head, ratio)


def test_truncate_needs_two_symbols():
    with pytest.raises(OutOfRangeError):
        truncate(Geometric(F(1, 2)), 1)


def reference_prefix(spec, n):
    """The prefix as each family first built it: one ``Fraction`` per term,
    stepped by ``Fraction`` products."""
    if isinstance(spec, Geometric):
        probs, p = [], spec.ratio
        for _ in range(n):
            probs.append(p)
            p *= 1 - spec.ratio
        return probs
    if isinstance(spec, AlphaSequence):
        probs, residual = [], F(1)
        for i in range(1, n + 1):
            a = spec.alpha_at(i)
            probs.append(a * residual)
            residual *= 1 - a
        return probs
    probs = list(spec.head[:n])
    p = (1 - sum(spec.head)) * spec.ratio
    for _ in range(len(spec.head), n):
        probs.append(p)
        p *= 1 - spec.ratio
    return probs


def test_prefix_numerators_match_the_fraction_reference(rng, monkeypatch):
    cases = [(random_source(rng), rng.randint(1, 300)) for _ in range(150)]
    cases += [(random_source(rng), rng.randint(1, 6)) for _ in range(50)]
    cases += [(Geometric(F(1, 10**4400)), n) for n in (1, 2, 5, 12)]
    for spec, n in cases:
        nums, den = spec.prefix_numerators(n)
        want = reference_prefix(spec, n)
        assert [F(v, den) for v in nums] == want, (spec.literal(), n)
        assert spec.prefix_probs(n) == want
        assert spec.prob(n) == want[-1]
        # den fits the estimate that check_denominator_bits caps: with the
        # cap one bit below den's length, the estimate passes it
        monkeypatch.setattr(sources, "MAX_DENOMINATOR_BITS", den.bit_length() - 1)
        with pytest.raises(OutOfRangeError):
            sources.check_denominator_bits(spec, n)
        monkeypatch.undo()


def closed_form_prob(spec, i):
    """p_i by the family's own closed form, for a geometric or an
    explicit-head source."""
    if isinstance(spec, Geometric):
        return spec.ratio * (1 - spec.ratio) ** (i - 1)
    k = len(spec.head)
    if i <= k:
        return spec.head[i - 1]
    return (1 - sum(spec.head)) * spec.ratio * (1 - spec.ratio) ** (i - k - 1)


def closed_form_head_sum(spec, n):
    """S_n by the family's own closed form, as :func:`closed_form_prob`."""
    if isinstance(spec, Geometric):
        return 1 - (1 - spec.ratio) ** n
    k = len(spec.head)
    if n <= k:
        return sum(spec.head[:n])
    return sum(spec.head) + (1 - sum(spec.head)) * (1 - (1 - spec.ratio) ** (n - k))


def closed_form_specs(rng):
    specs = [
        Geometric(F(1, 4)),
        Geometric(F(2, 7)),
        Geometric(F(1, 10**40)),
        ExplicitHead((F(1, 3), F(1, 4)), F(1, 3)),
        ExplicitHead((F(1, 3),), F(1, 2)),
        ExplicitHead((F(2, 5), F(1, 5), F(1, 5)), F(1, 2)),
    ]
    while len(specs) < 40:
        spec = random_source(rng)
        if not isinstance(spec, AlphaSequence):
            specs.append(spec)
    return specs


def test_alpha_cover_code_matches_the_family_closed_forms(rng):
    # p_i, S_n and 1 - S_n come from the alpha cover for every family; the
    # per-family closed forms they replaced are the reference
    for spec in closed_form_specs(rng):
        want = [closed_form_prob(spec, i) for i in range(1, 65)]
        assert spec.prefix_probs(64) == want, spec.literal()
        for n in range(1, 65):
            assert spec.prob(n) == want[n - 1], (spec.literal(), n)
            sn = closed_form_head_sum(spec, n)
            assert spec.head_sum(n) == sn, (spec.literal(), n)
            assert spec.tail_after(n) == 1 - sn, (spec.literal(), n)


def test_geometric_prefix_is_the_one_ratio_alpha_prefix(rng):
    ratios = [F(1, 4), F(2, 7), F(1, 10**40)]
    for _ in range(20):
        q = rng.randint(2, 60)
        ratios.append(F(rng.randint(1, q - 1), q))
    for r in ratios:
        for n in range(1, 65):
            nums, den = Geometric(r).prefix_numerators(n)
            assert (nums, den) == AlphaSequence((r,)).prefix_numerators(n)
            assert den == r.denominator**n


def test_prefix_den_is_the_alpha_denominator_product(rng):
    specs = [random_source(rng) for _ in range(40)]
    specs += [s for s in closed_form_specs(rng) if isinstance(s, ExplicitHead)]
    for spec in specs:
        if isinstance(spec, ExplicitHead):
            cover = to_alphas(spec.head).alphas + (spec.ratio,)
        else:
            cover = spec.alphas_cover().alphas
        for n in range(1, 65):
            _, den = spec.prefix_numerators(n)
            want = prod(cover[min(i, len(cover)) - 1].denominator for i in range(1, n + 1))
            assert den == want, (spec.literal(), n)


def test_prefix_past_the_denominator_cap_is_refused_before_it_is_built(monkeypatch):
    # 1000 terms of a 2**-300 ratio need a 301000-bit denominator
    def unreachable(*args):
        raise AssertionError("a term was built")

    monkeypatch.setattr(sources, "prod", unreachable)
    spec = Geometric(F(1, 2**300))
    for build in (spec.prefix_numerators, spec.prefix_probs):
        with pytest.raises(OutOfRangeError, match="up to 301000 bits"):
            build(1000)


def test_prefix_numerators_need_a_symbol():
    for spec in (Geometric(F(1, 2)), AlphaSequence((F(1, 2),)), ExplicitHead((F(1, 2),), F(1, 2))):
        with pytest.raises(OutOfRangeError):
            spec.prefix_numerators(0)


@pytest.mark.parametrize("spec", [
    Geometric(F(1, 4)),
    AlphaSequence((F(3, 7), F(2, 5), F(9, 20))),
    ExplicitHead((F(1, 3), F(1, 4)), F(1, 3)),
], ids=lambda spec: spec.literal())
def test_prefix_consumers_build_no_fraction_per_term(spec, monkeypatch):
    # truncate, the convergence sweep and the infinite-tail test work on
    # prefix_numerators; the few Fractions left are the closed-form S_n
    # checks, the alpha cover and the anti-uniform witness.  Python 3.11
    # makes every Fraction, arithmetic results included, through __new__;
    # later versions build arithmetic results without it, so there the
    # count is only a floor
    new = F.__new__
    for run in (lambda: truncate(spec, 300),
                lambda: list(_sweep(spec, 2, 300, 16)),
                lambda: check_infinite_tail(spec, 300)):
        built = []

        def counting(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(F, "__new__", counting)
        run()
        monkeypatch.undo()
        assert len(built) < 30
