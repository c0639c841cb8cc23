"""Pure-Python merge kernel.

Weights are plain Python ints, understood as numerators over one shared
denominator, so every comparison and sum in the merge loop is exact at
arbitrary precision.  ``prefixcode.kernel`` prefers the compiled twin
(``_kernel_cy``) when it was built; both implement the same contract and
must produce identical output.
"""

from __future__ import annotations


def run_merges(nums, record_states=False):
    """Run the deterministic merge loop over non-increasing integer weights.

    Each step removes the last two weights, inserts their sum immediately
    before any existing weight of equal value (leftmost position whose
    weight is <= the sum), and records the 1-based insertion index.

    Returns ``(lengths, ks, sums, states, parents)``:

    * ``lengths[i]``: final tree depth of input weight i;
    * ``ks[m-1]``: 1-based insertion index of merge m;
    * ``sums[m-1]``: merged weight created by merge m;
    * ``states[m-1]``: weight list after merge m when ``record_states``,
      else ``None``;
    * ``parents[j]``: parent node id of node j, where leaves are 0..n-1 and
      merge m creates node n-1+m (the root has no parent entry).
    """
    n = len(nums)
    if n < 2:
        raise ValueError("need at least two weights")
    vals = list(nums)
    ids = list(range(n))
    parents = [0] * (2 * n - 1)
    ks = []
    sums = []
    states = [] if record_states else None
    for m in range(1, n):
        b = vals.pop()
        bi = ids.pop()
        a = vals.pop()
        ai = ids.pop()
        s = a + b
        nid = n - 1 + m
        parents[ai] = nid
        parents[bi] = nid
        # leftmost index whose value is <= s (vals is non-increasing)
        lo, hi = 0, len(vals)
        while lo < hi:
            mid = (lo + hi) // 2
            if vals[mid] <= s:
                hi = mid
            else:
                lo = mid + 1
        vals.insert(lo, s)
        ids.insert(lo, nid)
        ks.append(lo + 1)
        sums.append(s)
        if states is not None:
            states.append(vals.copy())
    depths = [0] * (2 * n - 1)
    for node in range(2 * n - 3, -1, -1):
        depths[node] = depths[parents[node]] + 1
    return depths[:n], ks, sums, states, parents


def state_after(nums, steps):
    """Weight list after the first `steps` merges (0 gives a copy of nums)."""
    n = len(nums)
    if not 0 <= steps <= n - 1:
        raise ValueError(f"steps must be in [0, {n - 1}], got {steps}")
    vals = list(nums)
    for _ in range(steps):
        b = vals.pop()
        a = vals.pop()
        s = a + b
        lo, hi = 0, len(vals)
        while lo < hi:
            mid = (lo + hi) // 2
            if vals[mid] <= s:
                hi = mid
            else:
                lo = mid + 1
        vals.insert(lo, s)
    return vals


def merge_until(nums, bound):
    """Merge while the next merge sum is below `bound`.

    Returns ``(steps, vals)``: the number of merges done and the weight list
    they leave, whose last two weights sum to at least `bound`.  With
    ``bound = nums[0]`` that is the delta occasion: ``steps`` counts the
    merge sums below the top weight, without running the rest.
    """
    vals = list(nums)
    steps = 0
    while len(vals) > 1:
        s = vals[-1] + vals[-2]
        if s >= bound:
            break
        del vals[-2:]
        lo, hi = 0, len(vals)
        while lo < hi:
            mid = (lo + hi) // 2
            if vals[mid] <= s:
                hi = mid
            else:
                lo = mid + 1
        vals.insert(lo, s)
        steps += 1
    return steps, vals
