"""Both kernel twins must agree bit for bit and preserve exact invariants."""

import random

import pytest

from prefixcode import _kernel_py

BACKENDS = [pytest.param(_kernel_py.run_merges, id="pure")]
try:
    from prefixcode import _kernel_cy

    BACKENDS.append(pytest.param(_kernel_cy.run_merges, id="compiled"))
except ImportError:
    _kernel_cy = None


@pytest.mark.parametrize("run_merges", BACKENDS)
def test_reference_example(run_merges):
    # weights 4,3,2,1 over denominator 10
    depths, ks, sums, states, parents = run_merges([4, 3, 2, 1], True)
    assert depths == [1, 2, 3, 3]
    assert ks == [2, 1, 1]
    assert sums == [3, 6, 10]
    assert states == [[4, 3, 3], [6, 4], [10]]
    # merge 1 (node 4) has children 2 and 3; root is node 6
    assert parents[2] == parents[3] == 4
    assert parents[4] == parents[1] == 5
    assert parents[5] == parents[0] == 6


@pytest.mark.parametrize("run_merges", BACKENDS)
def test_tie_inserts_before_equals(run_merges):
    # 1/3, 1/3, 1/3 over denominator 3: merged 2/3 goes in front
    _, ks, sums, states, _ = run_merges([1, 1, 1], True)
    assert ks == [1, 1]
    assert states[0] == [2, 1]


@pytest.mark.parametrize("run_merges", BACKENDS)
def test_mass_and_order_invariants(run_merges, rng):
    for _ in range(50):
        n = rng.randint(2, 40)
        nums = sorted((rng.randint(1, 10**6) for _ in range(n)), reverse=True)
        total = sum(nums)
        _, _, sums, states, _ = run_merges(nums, True)
        for state in states:
            assert sum(state) == total
            assert all(a >= b for a, b in zip(state, state[1:]))
        assert all(a <= b for a, b in zip(sums, sums[1:]))  # merge sums never decrease
        assert sums[-1] == total


@pytest.mark.parametrize("run_merges", BACKENDS)
def test_kraft_tight_depths(run_merges, rng):
    for _ in range(50):
        n = rng.randint(2, 40)
        nums = sorted((rng.randint(1, 999) for _ in range(n)), reverse=True)
        depths, _, _, _, _ = run_merges(nums)
        assert sum(2 ** (max(depths) - d) for d in depths) == 2 ** max(depths)
        assert all(a <= b for a, b in zip(depths, depths[1:]))


@pytest.mark.parametrize("run_merges", BACKENDS)
def test_rejects_single_weight(run_merges):
    with pytest.raises(ValueError):
        run_merges([7])


def test_state_after_matches_recorded_states(rng):
    nums = sorted((rng.randint(1, 500) for _ in range(25)), reverse=True)
    _, _, _, states, _ = _kernel_py.run_merges(nums, True)
    assert _kernel_py.state_after(nums, 0) == nums
    for steps, state in enumerate(states, start=1):
        assert _kernel_py.state_after(nums, steps) == state
    with pytest.raises(ValueError):
        _kernel_py.state_after(nums, len(nums))


def test_merge_until_stops_at_the_first_sum_reaching_the_bound(rng):
    for _ in range(100):
        n = rng.randint(2, 40)
        nums = sorted((rng.randint(1, rng.choice((4, 500))) for _ in range(n)), reverse=True)
        _, _, sums, states, _ = _kernel_py.run_merges(nums, True)
        for bound in (nums[0], rng.randint(1, sum(nums)), sum(nums)):
            steps, vals = _kernel_py.merge_until(nums, bound)
            assert all(s < bound for s in sums[:steps])
            assert sums[steps] >= bound
            assert vals == ([nums] + states)[steps]


@pytest.mark.skipif(_kernel_cy is None, reason="compiled kernel not built")
def test_backends_agree(rng):
    for _ in range(100):
        n = rng.randint(2, 64)
        if rng.random() < 0.5:
            nums = sorted((rng.randint(1, 10**3) for _ in range(n)), reverse=True)
        else:
            # big-int regime, thousands of bits
            nums = [4 ** (n - i) * 3 ** (i - 1) for i in range(1, n + 1)]
        assert _kernel_py.run_merges(nums, True) == _kernel_cy.run_merges(nums, True)
