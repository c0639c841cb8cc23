"""The merge kernel: the standardized Huffman merge loop over plain ints.

Weights are Python ints, understood as numerators over one shared
denominator, so every comparison and sum is exact at arbitrary precision.

The state is a non-increasing list; each merge removes its last two
weights and inserts their sum before any weight of equal value.  The input
is sorted and merge sums never decrease, so the kernel runs the two-queue
form of that rule (van Leeuwen, 1976): a read pointer into the leaves,
smallest first, and a FIFO of merged sums.  "Before equals" means that on a
tie the leaf pops first, and of two equal merged sums the older one.

The loop records only each merge sum and the queue head after each merge.
Everything else follows from those two lists: merge m pops the queued sums
between its two heads, and its other pops are the next unmerged leaves,
largest index first.  :func:`run_merges` derives depths and insertion
indices after the loop; :func:`leading_depths` walks from the root down
only as far as the first d leaves.
"""

from __future__ import annotations


def _merge(nums, steps, bound=None):
    """Up to `steps` merges, stopping before the first merge sum >= `bound`.

    Returns ``(sums, heads)``: ``sums[m]`` is the sum merge m (0-based)
    created, node ``n + m``, and ``heads[m]`` the number of sums merged
    before merge m, so ``heads[-1]`` is the queue head after the last merge.
    Before merge m, ``n - 2*m + heads[m]`` leaves are not yet merged.
    """
    n = len(nums)
    # a sentinel above every weight ends both the leaves (read from the
    # right) and the queue, so neither needs an exhaustion test
    top = nums[0] * n + 1 if nums else 1
    if bound is None:
        bound = top
    leaves = [top, *nums]
    sums = [top] * steps
    heads = [0]
    leaf = n
    head = 0
    for m in range(steps):
        x = leaves[leaf]
        y = sums[head]
        if x <= y:
            leaf -= 1
        else:
            x = y
            head += 1
        y = leaves[leaf]
        s = sums[head]
        if y <= s:
            leaf -= 1
            s = x + y
        else:
            head += 1
            s += x
        if s >= bound:  # put the pair back
            del sums[m:]
            break
        sums[m] = s
        heads.append(head)
    return sums, heads


def _state(nums, sums, heads):
    """The non-increasing weight list the recorded merges leave."""
    head = heads[-1]
    leaves = len(nums) - 2 * len(sums) + head
    return sorted([*nums[:leaves], *sums[head:]], reverse=True)


def _leaf_depths(n, heads, d):
    """Depths of leaves 0..d-1 (d <= n) from the recorded heads, one tree
    level at a time from the root down.

    Depths never increase in pop order, so the merges whose nodes sit at one
    level are a run ``lo..hi-1``: their children are the sums ``heads[lo]``
    to ``heads[hi] - 1``, the next level's merges, and the leaves that are
    unmerged before merge lo but not after merge hi-1.
    """
    out = []
    depth = 1
    lo, hi = n - 2, n - 1  # the root
    while len(out) < d:
        out += [depth] * (n - 2 * lo + heads[lo] - len(out))
        lo, hi = heads[lo], heads[hi]
        depth += 1
    return out


def run_merges(nums):
    """Run the merge loop to the root over non-increasing integer weights.

    Returns ``(lengths, ks, sums)``:

    * ``lengths[i]``: final tree depth of input weight i;
    * ``ks[m-1]``: 1-based insertion index of merge m;
    * ``sums[m-1]``: merged weight created by merge m.
    """
    n = len(nums)
    if n < 2:
        raise ValueError("need at least two weights")
    sums, heads = _merge(nums, n - 1)
    ks = []
    above = n  # leaves nums[:above] exceed the latest merge sum
    for s in sums:
        # every queued sum is at most s, so s goes in after the leaves > s
        while above and nums[above - 1] <= s:
            above -= 1
        ks.append(above + 1)
    return _leaf_depths(n, heads, n), ks, sums


def leading_depths(nums, d):
    """Depths of the first ``min(d, n)`` leaves: ``run_merges(nums)[0][:d]``.

    Runs the same loop, then walks from the root down only to the level
    that takes leaf d-1.  The largest weights merge last, so on a
    fast-decaying source that is O(d) steps, not the whole tree.
    """
    n = len(nums)
    if n < 2:
        raise ValueError("need at least two weights")
    d = min(d, n)
    return _leaf_depths(n, _merge(nums, n - 1)[1], d)[:d]


def state_after(nums, steps):
    """Weight list after the first `steps` merges (0 gives a copy of nums)."""
    n = len(nums)
    if not 0 <= steps <= n - 1:
        raise ValueError(f"steps must be in [0, {n - 1}], got {steps}")
    return _state(nums, *_merge(nums, steps))


def merge_until(nums, bound):
    """Merge while the next merge sum is below `bound`.

    Returns ``(steps, vals)``: the number of merges done and the weight list
    they leave, whose last two weights sum to at least `bound`.  With
    ``bound = nums[0]`` that is the delta occasion: ``steps`` counts the
    merge sums below the top weight, without running the rest.
    """
    sums, heads = _merge(nums, max(len(nums) - 1, 0), bound)
    return len(sums), _state(nums, sums, heads)
