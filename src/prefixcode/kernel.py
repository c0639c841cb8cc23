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
indices after the loop.  Those two lists are also the whole state of the
loop, so a run can stop before a bound and resume later.

The record is allocated once per run and never grown or trimmed.  Merge
m (0-based) writes the number of sums merged before it to slot m of
``heads`` and its sum to slot m of ``sums``.  ``sums`` starts with the
sentinel, a value above every weight and sum, in every slot; merge m reads
no slot above m, so when it starts, ``sums[m]`` still holds the sentinel
and ends the queue.  The loop returns the merge count, which is the
record's length.

:func:`tail_depths` codes a sequence of truncations with one shared run
(Gallager and Van Voorhis, 1975, for the self-similar structure).  When the
weights from p_L on shrink by a constant ratio c/d, the tail
V_n = {p_L, ..., p_n} of truncation n obeys V_(n+1) = {p_L} + (c/d)*V_n.  A
merge whose sum is below p_L pops two tail items below p_L, never p_L or a
head weight, so the merges of V_n below p_L, scaled by c/d, are the first
merges of V_(n+1).  The frontier is what they leave: the unmerged tail
leaves, always p_L onward, and the queued sums.  Stepping it to n + 1
scales the queued sums by c/d, an exact integer division because each is a
sum of tail weights p_j with j <= n and p_j*c/d = p_(j+1); then p_L joins
as the largest leaf and the run resumes up to the bound p_L.  Any two
frontier items sum to at least p_L, and together they hold the tail's mass,
below p_L/(1 - c/d), so there are at most min(n, 2/(1 - c/d) + 1) of them.
Truncation n is finished from the head weights plus the frontier, and the
finishing merges are then dropped from the shared record.  A truncation
n <= L has no tail merges to share, so its finishing merges are a full run.

The sweep keeps one record of len(nums) slots for all its truncations.
Slots ``0..shared-1`` hold the shared tail merges, and the queued sums
among them, ``sums[heads[shared]:shared]``, are scaled by c/d in place.
Truncation n's finishing merges write slots ``shared..n-2``; dropping them
puts the sentinel back in those slots with one slice assignment, so every
slot above the shared merges holds it, as in a fresh record.
"""

from __future__ import annotations


def _leaves(nums):
    """The leaf list :func:`_merge` reads: ``[top, *nums]``, where the
    sentinel ``top`` is above every weight and every sum of them, so neither
    the leaves (read from the right) nor the queue needs an exhaustion test.
    """
    return [nums[0] * len(nums) + 1 if nums else 1, *nums]


def _merge(leaves, n, sums, heads, m, end, bound):
    """Resume the merge loop over the weights ``leaves[1..n]`` from merge m
    to at most merge ``end - 1``, stopping before the first merge sum >=
    `bound`; returns the number of merges then done.

    The run so far is the record ``sums[:m]``, ``heads[:m + 1]``, written in
    place: ``heads[m]`` is the number of sums merged before merge m
    (0-based), which writes its sum, node ``n + m``, to ``sums[m]``, so the
    queue before merge m is ``sums[heads[m]:m]``.  Before merge m,
    ``n - 2*m + heads[m]`` leaves are not yet merged.  ``leaves[0]`` is the
    sentinel of :func:`_leaves`, and ``sums[m]`` must hold it when merge m
    starts: it is the queue's end.
    """
    head = heads[m]
    leaf = n - 2 * m + head
    for m in range(m, end):
        heads[m] = head
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
        if s >= bound:  # put the pair back: the state is sums and heads
            return m
        sums[m] = s
    heads[end] = head
    return end


def _run(nums, steps, bound=None):
    """``(sums, heads, count)``: the record of up to `steps` merges from the
    sorted weights, stopping before the first merge sum >= `bound` (none by
    default), and the number of merges done."""
    leaves = _leaves(nums)
    top = leaves[0]
    sums, heads = [top] * (steps + 1), [0] * (steps + 1)
    count = _merge(leaves, len(nums), sums, heads, 0, steps,
                   top if bound is None else bound)
    return sums, heads, count


def _state(nums, sums, heads, count):
    """The non-increasing weight list the first `count` recorded merges leave."""
    head = heads[count]
    leaves = len(nums) - 2 * count + head
    return sorted([*nums[:leaves], *sums[head:count]], reverse=True)


def _leaf_depths(n, heads, d):
    """Depths of leaves 0..d-1 (d <= n), and maybe of some leaves after
    them, from the recorded heads, one tree level at a time from the root
    down.

    Depths never increase in pop order, so the merges whose nodes sit at one
    level are a run from some merge m up to the first merge of the level
    above.  They pop the sums from ``heads[m]`` on, the next level's
    merges, and every leaf still unmerged before merge m: the
    ``n - 2*m + heads[m]`` leaves at this level or above.
    """
    out = []
    placed = 0
    depth = 1
    m = n - 2  # the root
    while placed < d:
        leaves = n - 2 * m + heads[m]
        out += [depth] * (leaves - placed)
        placed = leaves
        m = heads[m]
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
    sums, heads, _ = _run(nums, n - 1)
    del sums[n - 1 :]  # the sentinel
    ks = []
    above = n  # leaves nums[:above] exceed the latest merge sum
    for s in sums:
        # every queued sum is at most s, so s goes in after the leaves > s
        while above and nums[above - 1] <= s:
            above -= 1
        ks.append(above + 1)
    return _leaf_depths(n, heads, n), ks, sums


def state_after(nums, steps):
    """Weight list after the first `steps` merges (0 gives a copy of nums)."""
    n = len(nums)
    if not 0 <= steps <= n - 1:
        raise ValueError(f"steps must be in [0, {n - 1}], got {steps}")
    return _state(nums, *_run(nums, steps))


def merge_until(nums, bound):
    """Merge while the next merge sum is below `bound`.

    Returns ``(steps, vals)``: the number of merges done and the weight list
    they leave, whose last two weights sum to at least `bound`.  With
    ``bound = nums[0]`` that is the delta occasion: ``steps`` counts the
    merge sums below the top weight, without running the rest.
    """
    sums, heads, count = _run(nums, max(len(nums) - 1, 0), bound)
    return count, _state(nums, sums, heads, count)


def tail_depths(nums, tail, c, d, n_min, depth):
    """Depths of the first `depth` leaves, ``run_merges(nums[:n])[0][:depth]``,
    of the truncations ``nums[:n]`` for n = n_min .. len(nums), one list per
    n, when the weights from ``nums[tail - 1]`` on shrink by the ratio c/d:
    ``nums[j + 1] * d == nums[j] * c`` for every j >= tail - 1.

    The truncations past the head share one merge frontier (see the module
    docstring), so each n costs O(tail + d/(d - c)) merges rather than n.
    Each list walks from the root down only to the level of leaf
    ``depth - 1``: the largest weights merge last, so on a fast-decaying
    source that is O(depth) steps, not the whole tree.
    """
    leaves = _leaves(nums)
    top = leaves[0]
    # one record for the whole sweep: sums[:shared] are the tail merges
    # every truncation shares, and sums[shared] is the sentinel
    sums, heads = [top] * len(nums), [0] * len(nums)
    shared = 0
    for n in range(2, len(nums) + 1):
        if n > tail:
            for i in range(heads[shared], shared):  # the queued sums
                sums[i] = sums[i] * c // d
            # the tail holds n - tail + 1 - shared items; the bound keeps
            # the largest tail weight, so at most that many less one merge
            shared = _merge(leaves, n, sums, heads, shared, n - tail, leaves[tail])
        if n >= n_min:
            _merge(leaves, n, sums, heads, shared, n - 1, top)
            yield _leaf_depths(n, heads, min(depth, n))[:depth]
            # drop the finishing merges: their slots hold the sentinel again
            sums[shared : n - 1] = [top] * (n - 1 - shared)
