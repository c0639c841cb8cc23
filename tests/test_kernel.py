"""The two-queue merge kernel equals the binary-search loop it replaced, bit
for bit, and preserves exact invariants; its leading depths are a prefix of
the full run's."""

from fractions import Fraction
from itertools import islice

import pytest

from prefixcode import Geometric, kernel
from prefixcode.errors import TooFewEntriesError
from prefixcode.huffman import MergeState
from prefixcode.numutil import common_numerators
from test_convergence import _random_alpha_spec, leading_depths


def reference_merges(nums):
    """The merge loop as first written: pop the last two weights, find the
    leftmost weight <= their sum by binary search, insert the sum there.

    Slow (a list insertion per merge) and plainly right.  Returns
    ``(lengths, ks, sums, parents, states)``, ``states[m-1]`` being the
    weight list after merge m.
    """
    n = len(nums)
    if n < 2:
        raise ValueError("need at least two weights")
    vals = list(nums)
    ids = list(range(n))
    parents = [0] * (2 * n - 1)
    ks, sums, states = [], [], []
    for m in range(1, n):
        b, bi = vals.pop(), ids.pop()
        a, ai = vals.pop(), ids.pop()
        s = a + b
        parents[ai] = parents[bi] = n - 1 + m
        lo, hi = 0, len(vals)
        while lo < hi:
            mid = (lo + hi) // 2
            if vals[mid] <= s:
                hi = mid
            else:
                lo = mid + 1
        vals.insert(lo, s)
        ids.insert(lo, n - 1 + m)
        ks.append(lo + 1)
        sums.append(s)
        states.append(vals.copy())
    depths = [0] * (2 * n - 1)
    for node in range(2 * n - 3, -1, -1):
        depths[node] = depths[parents[node]] + 1
    return depths[:n], ks, sums, parents, states


def merge_step(state):
    """One standardized merge on exact probabilities, the ``Fraction`` loop
    the library first ran; returns the new state and the 1-based insertion
    index of the merged mass."""
    probs = state.probs
    if len(probs) < 2:
        raise TooFewEntriesError("need at least two entries to merge")
    s = probs[-1] + probs[-2]
    rest = list(probs[:-2])
    lo, hi = 0, len(rest)
    while lo < hi:
        mid = (lo + hi) // 2
        if rest[mid] <= s:
            hi = mid
        else:
            lo = mid + 1
    rest.insert(lo, s)
    return MergeState(state.m + 1, *common_numerators(rest)), lo + 1


def trace_states(trace):
    """The states of a merge trace at m = 0, 1, ..., n-1, replayed from its
    record ``(nums, ks, sums)``: merge m drops the last two weights and
    puts ``sums[m-1]`` at 1-based index ``ks[m-1]``."""
    vals = list(trace.nums)
    states = [MergeState(0, tuple(vals), trace.den)]
    for m, (k, s) in enumerate(zip(trace.ks, trace.sums), start=1):
        del vals[-2:]
        vals.insert(k - 1, s)
        states.append(MergeState(m, tuple(vals), trace.den))
    return states


def reference_run(nums):
    return reference_merges(nums)[:3]


def reference_merge_until(nums, bound):
    """Steps and state of merge_until, read off the reference's full run."""
    _, _, sums, _, states = reference_merges(nums)
    steps = next((m for m, s in enumerate(sums) if s >= bound), len(sums))
    return steps, ([list(nums)] + states)[steps]


# the pure-Python kernel, and the reference it must equal
RUN_MERGES = [pytest.param(kernel.run_merges, id="pure"),
              pytest.param(reference_run, id="reference")]


def geometric_numerators(n_max):
    nums, _ = common_numerators(Geometric(Fraction(1, 4)).prefix_probs(n_max))
    return nums


@pytest.mark.parametrize("run_merges", RUN_MERGES)
def test_reference_example(run_merges):
    # weights 4,3,2,1 over denominator 10
    nums = [4, 3, 2, 1]
    depths, ks, sums = run_merges(nums)
    states = reference_merges(nums)[4]
    assert depths == [1, 2, 3, 3]
    assert ks == [2, 1, 1]
    assert sums == [3, 6, 10]
    assert states == [[4, 3, 3], [6, 4], [10]]
    assert [kernel.state_after(nums, m) for m in (1, 2, 3)] == states


@pytest.mark.parametrize("run_merges", RUN_MERGES)
def test_tie_inserts_before_equals(run_merges):
    # 1/3, 1/3, 1/3 over denominator 3: merged 2/3 goes in front
    _, ks, sums = run_merges([1, 1, 1])
    states = reference_merges([1, 1, 1])[4]
    assert ks == [1, 1]
    assert states[0] == [2, 1]
    assert kernel.state_after([1, 1, 1], 1) == [2, 1]


@pytest.mark.parametrize("run_merges", RUN_MERGES)
def test_leaf_pops_before_an_equal_merged_node(run_merges):
    # merge 1 makes a sum of 2, tying leaf 0; leaf 1 merges with leaf 0
    # (popping the sum first would give depths [1, 2, 3, 3])
    depths, ks, sums = run_merges([2, 1, 1, 1])
    assert ks == [1, 1, 1]
    assert sums == [2, 3, 5]
    assert depths == [2, 2, 2, 2]


@pytest.mark.parametrize("run_merges", RUN_MERGES)
def test_older_merged_node_pops_before_an_equal_newer_one(run_merges):
    # the first two sums both weigh 2; leaf 0 merges with the older one
    # (the newer would give depths [2, 3, 3, 2, 2])
    depths, ks, sums = run_merges([1, 1, 1, 1, 1])
    assert ks == [1, 1, 1, 1]
    assert sums == [2, 2, 3, 5]
    assert depths == [2, 2, 2, 3, 3]


@pytest.mark.parametrize("run_merges", RUN_MERGES)
def test_mass_and_order_invariants(run_merges, rng):
    for _ in range(50):
        n = rng.randint(2, 40)
        nums = sorted((rng.randint(1, 10**6) for _ in range(n)), reverse=True)
        total = sum(nums)
        _, _, sums = run_merges(nums)
        states = reference_merges(nums)[4]
        for state in states:
            assert sum(state) == total
            assert all(a >= b for a, b in zip(state, state[1:]))
        assert all(a <= b for a, b in zip(sums, sums[1:]))  # merge sums never decrease
        assert sums[-1] == total


@pytest.mark.parametrize("run_merges", RUN_MERGES)
def test_kraft_tight_depths(run_merges, rng):
    for _ in range(50):
        n = rng.randint(2, 40)
        nums = sorted((rng.randint(1, 999) for _ in range(n)), reverse=True)
        depths, _, _ = run_merges(nums)
        assert sum(2 ** (max(depths) - d) for d in depths) == 2 ** max(depths)
        assert all(a <= b for a, b in zip(depths, depths[1:]))


@pytest.mark.parametrize("run_merges", RUN_MERGES)
def test_rejects_single_weight(run_merges):
    with pytest.raises(ValueError):
        run_merges([7])


def test_state_after_matches_recorded_states(rng):
    nums = sorted((rng.randint(1, 500) for _ in range(25)), reverse=True)
    states = reference_merges(nums)[4]
    assert kernel.state_after(nums, 0) == nums
    for steps, state in enumerate(states, start=1):
        assert kernel.state_after(nums, steps) == state
    with pytest.raises(ValueError):
        kernel.state_after(nums, len(nums))


def test_merge_until_stops_at_the_first_sum_reaching_the_bound(rng):
    for _ in range(100):
        n = rng.randint(2, 40)
        nums = sorted((rng.randint(1, rng.choice((4, 500))) for _ in range(n)), reverse=True)
        _, _, sums, _, states = reference_merges(nums)
        for bound in (nums[0], rng.randint(1, sum(nums)), sum(nums)):
            steps, vals = kernel.merge_until(nums, bound)
            assert all(s < bound for s in sums[:steps])
            assert sums[steps] >= bound
            assert vals == ([nums] + states)[steps]


def _own_depths(nums, d):
    """The first d depths of truncation ``nums`` alone, coded by
    :func:`kernel.tail_depths` as a head-only truncation: with the whole
    prefix as head, the tail ratio (here 1/1) is never read."""
    return next(kernel.tail_depths(nums, len(nums), 1, 1, len(nums), d))


def differential_inputs(rng):
    """3000 seeded tie-prone inputs, n in 2..80, weights from five ranges."""
    for _ in range(3000):
        n = rng.randint(2, 80)
        hi = rng.choice((1, 2, 4, 500, 10**6))
        yield sorted((rng.randint(1, hi) for _ in range(n)), reverse=True)


def test_kernel_equals_reference_on_random_inputs(rng):
    for nums in differential_inputs(rng):
        *run, _, states = reference_merges(nums)
        assert kernel.run_merges(nums) == tuple(run)
        n = len(nums)
        for d in (1, 2, 16, n - 1, n, n + 1):
            assert _own_depths(nums, d) == run[0][:d]
        assert [kernel.state_after(nums, m) for m in range(len(nums))] == [nums] + states
        total = sum(nums)
        for bound in (nums[0], rng.randint(1, total), total, total + 1):
            assert kernel.merge_until(nums, bound) == reference_merge_until(nums, bound)


def test_kernel_equals_reference_on_geometric_prefixes():
    # geometric(1/4) numerators over the n = 300 denominator: up to ~600 bits
    full = geometric_numerators(300)
    for n in range(2, 301):
        nums = full[:n]
        *run, _, states = reference_merges(nums)
        assert kernel.run_merges(nums) == tuple(run)
        for d in (1, 16, n):
            assert _own_depths(nums, d) == run[0][:d]
        for bound in (nums[0], sum(nums), sum(nums) + 1):
            assert kernel.merge_until(nums, bound) == reference_merge_until(nums, bound)
        if n % 50 == 0:
            assert [kernel.state_after(nums, m) for m in range(n)] == [nums] + states


def test_reference_equals_fraction_merge_step(rng):
    # the integer reference against the Fraction merge_step on exact
    # probabilities
    for nums in islice(differential_inputs(rng), 100):
        den = sum(nums)
        _, ks, _, _, states = reference_merges(nums)
        state = MergeState(0, nums, den)
        for k, expected in zip(ks, states):
            state, step_k = merge_step(state)
            assert step_k == k
            assert state.probs == tuple(Fraction(v, den) for v in expected)


def test_tail_depths_equal_leading_depths_of_each_truncation(rng):
    # a sorted head of small integers, then a tail of ratio c/d from nums[tail - 1]
    for _ in range(200):
        c, d = sorted(rng.sample(range(1, 10), 2))
        size = rng.randint(1, 60)
        tail = rng.randint(1, 5)
        last = d**size * rng.randint(1, 3)
        head = sorted((last + rng.randint(0, 2) * d**size for _ in range(tail - 1)),
                      reverse=True)
        nums = head + [last * c**j // d**j for j in range(size)]
        n_min = rng.randint(2, max(2, len(nums)))
        for depth in (1, 3, len(nums)):
            assert list(kernel.tail_depths(nums, tail, c, d, n_min, depth)) == [
                leading_depths(nums[:n], depth) for n in range(n_min, len(nums) + 1)
            ]


def _alpha_sweep_inputs(rng, n_max):
    """The integer prefix of a random alpha list (denominators up to 9, so
    many ties) with its cover length and tail ratio c/d, as the sweep
    passes them to tail_depths."""
    spec = _random_alpha_spec(rng)
    nums, _ = spec.prefix_numerators(n_max)
    cover = spec.alphas_cover().alphas
    alpha = cover[-1]
    return nums, len(cover), alpha.denominator - alpha.numerator, alpha.denominator


def _per_n_leading_depths(nums, n_min, depth):
    return [leading_depths(nums[:n], depth) for n in range(n_min, len(nums) + 1)]


def test_tail_depths_codes_head_only_prefixes_like_per_n_full_runs(rng):
    # a prefix no longer than the cover holds no truncation past the head,
    # so each truncation is coded as a full run
    for _ in range(100):
        nums, tail, c, d = _alpha_sweep_inputs(rng, rng.randint(1, 6))
        for depth in (1, 4):
            expected = _per_n_leading_depths(nums, 2, depth)
            if len(nums) <= tail:
                assert list(kernel.tail_depths(nums, tail, c, d, 2, depth)) == expected
            assert list(kernel.tail_depths(nums, len(nums), c, d, 2, depth)) == expected


def test_tail_depths_equal_leading_depths_on_random_alpha_lists(rng):
    for _ in range(150):
        nums, tail, c, d = _alpha_sweep_inputs(rng, rng.randint(2, 120))
        size = len(nums)
        # from the first truncation, from one inside the tail, and past the end
        for n_min in (2, tail + 1 + rng.randint(1, 8), size + 1):
            for depth in (1, rng.randint(1, size), size, size + 3):
                assert list(kernel.tail_depths(nums, tail, c, d, n_min, depth)) == \
                    _per_n_leading_depths(nums, n_min, depth), (nums, tail, n_min, depth)


def test_two_sweeps_over_the_same_inputs_agree(rng):
    # each sweep owns its record: run one after the other, or in lockstep,
    # they yield the same lists and leave the weights as they were
    for _ in range(60):
        nums, tail, c, d = _alpha_sweep_inputs(rng, rng.randint(2, 90))
        kept = list(nums)
        depth = rng.randint(1, 6)
        expected = _per_n_leading_depths(nums, 2, depth)
        assert list(kernel.tail_depths(nums, tail, c, d, 2, depth)) == expected
        assert list(kernel.tail_depths(nums, tail, c, d, 2, depth)) == expected
        both = zip(kernel.tail_depths(nums, tail, c, d, 2, depth),
                   kernel.tail_depths(nums, tail, c, d, 2, depth))
        assert list(both) == [(depths, depths) for depths in expected]
        assert nums == kept


def test_full_runs_equal_reference_on_random_alpha_prefixes(rng):
    # the record that full runs and bounded runs write, on tie-heavy prefixes
    for _ in range(60):
        nums, *_ = _alpha_sweep_inputs(rng, rng.randint(2, 70))
        if len(nums) < 2:
            continue
        *run, _, states = reference_merges(nums)
        assert kernel.run_merges(nums) == tuple(run)
        assert [kernel.state_after(nums, m) for m in range(len(nums))] == [nums] + states
        for bound in (nums[0], nums[-1], sum(nums) // 2, sum(nums), sum(nums) + 1):
            assert kernel.merge_until(nums, bound) == reference_merge_until(nums, bound)
