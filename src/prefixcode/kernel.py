"""The merge kernel: the standardized Huffman merge loop over plain ints.

Weights are Python ints, understood as numerators over one shared
denominator, so every comparison and sum is exact at arbitrary precision.

The state is a non-increasing list; each merge removes its last two
weights and inserts their sum before any weight of equal value.  The input
is sorted and merge sums never decrease, so the kernel runs the two-queue
form of that rule (van Leeuwen, 1976): a read pointer into the leaves,
smallest first, and a FIFO of merged sums.  "Before equals" means that on a
tie the leaf pops first, and of two equal merged sums the older one.  Every
queued sum is at most the new sum, so the 1-based insertion index is
1 + (number of leaves > sum), tracked by a pointer that only moves left.
"""

from __future__ import annotations

_UNBOUNDED = float("inf")  # above every merge sum


def _merge(nums, steps, bound):
    """Up to `steps` merges, stopping before the first merge sum >= `bound`.

    Returns ``(leaves, sums, head, ks, parents)``: ``nums[:leaves]`` are the
    leaves not yet merged, ``sums[m-1]`` is the sum merge m created (node
    ``n-1+m``), of which ``sums[head:]`` are not yet merged, ``ks`` the
    insertion indices and ``parents`` the parent node id of each node.
    """
    n = len(nums)
    sums = []
    ks = []
    parents = [0] * (2 * n - 1)
    leaf = n - 1  # the smallest leaf not yet merged
    head = 0
    above = n  # leaves nums[:above] exceed the latest merge sum
    for node in range(n, n + steps):
        queued = node - n  # len(sums)
        if leaf >= 0 and (head == queued or nums[leaf] <= sums[head]):
            b, bi = nums[leaf], leaf
            leaf -= 1
        else:
            b, bi = sums[head], n + head
            head += 1
        if leaf >= 0 and (head == queued or nums[leaf] <= sums[head]):
            a, ai = nums[leaf], leaf
            leaf -= 1
        else:
            a, ai = sums[head], n + head
            head += 1
        s = a + b
        if s >= bound:  # put the pair back
            leaf += (ai < n) + (bi < n)
            head -= (ai >= n) + (bi >= n)
            break
        parents[ai] = parents[bi] = node
        while above and nums[above - 1] <= s:
            above -= 1
        ks.append(above + 1)
        sums.append(s)
    return leaf + 1, sums, head, ks, parents


def _state(nums, leaves, sums, head):
    """The non-increasing weight list of the leaves and the queued sums."""
    return sorted([*nums[:leaves], *sums[head:]], reverse=True)


def run_merges(nums):
    """Run the merge loop to the root over non-increasing integer weights.

    Returns ``(lengths, ks, sums, parents)``:

    * ``lengths[i]``: final tree depth of input weight i;
    * ``ks[m-1]``: 1-based insertion index of merge m;
    * ``sums[m-1]``: merged weight created by merge m;
    * ``parents[j]``: parent node id of node j, where leaves are 0..n-1 and
      merge m creates node n-1+m (the root has no parent entry).
    """
    n = len(nums)
    if n < 2:
        raise ValueError("need at least two weights")
    _, sums, _, ks, parents = _merge(nums, n - 1, _UNBOUNDED)
    depths = [0] * (2 * n - 1)
    for node in range(2 * n - 3, -1, -1):
        depths[node] = depths[parents[node]] + 1
    return depths[:n], ks, sums, parents


def state_after(nums, steps):
    """Weight list after the first `steps` merges (0 gives a copy of nums)."""
    n = len(nums)
    if not 0 <= steps <= n - 1:
        raise ValueError(f"steps must be in [0, {n - 1}], got {steps}")
    leaves, sums, head, _, _ = _merge(nums, steps, _UNBOUNDED)
    return _state(nums, leaves, sums, head)


def merge_until(nums, bound):
    """Merge while the next merge sum is below `bound`.

    Returns ``(steps, vals)``: the number of merges done and the weight list
    they leave, whose last two weights sum to at least `bound`.  With
    ``bound = nums[0]`` that is the delta occasion: ``steps`` counts the
    merge sums below the top weight, without running the rest.
    """
    leaves, sums, head, _, _ = _merge(nums, max(len(nums) - 1, 0), bound)
    return len(sums), _state(nums, leaves, sums, head)
