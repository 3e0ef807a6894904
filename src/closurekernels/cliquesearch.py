"""The first k pairwise-compatible items, by a clique search on `int` masks.

This is the one search behind four exact oracles (independent set,
induced matching, multicolored independent set, exact set cover) and the
Ramsey fallback's exact subset search. It has a module of its own because
its two users, `oracles` and `ramsey`, run on different routes, and
neither route should compile the other module.
"""
from __future__ import annotations

from typing import Sequence


def first_clique(masks: Sequence[int], k: int) -> tuple[tuple[int, ...] | None, int]:
    """The first k pairwise-compatible items as ascending indices, or None,
    and the number of search nodes.

    Bit j of masks[i] says items i and j may be chosen together (masks are
    symmetric; an item's own bit is ignored). The answer is the first
    k-clique in lexicographic order of index tuples. Depth-first search
    that keeps, per open node, the mask of later items compatible with
    every chosen one. A node is counted on entry and cut when the items
    after its last choice cannot bring the choice up to k; its later
    siblings would be cut too, so they are counted without being entered.
    """
    n = len(masks)
    if k <= 0 or k > n:
        return (() if k <= 0 else None), 1
    chosen: list[int] = []
    untried = [(1 << n) - 1]  # per open node, its compatible items not yet tried
    nodes = 1
    while untried:
        left = untried[-1]
        if left:
            i = (left & -left).bit_length() - 1
            nodes += 1
            depth = len(chosen) + 1
            if depth == k:
                return (*chosen, i), nodes
            left ^= 1 << i
            if i + k - depth < n:
                untried[-1] = left
                chosen.append(i)
                untried.append(left & masks[i])
                continue
            nodes += left.bit_count()
        untried.pop()
        if chosen:
            chosen.pop()
    return None, nodes
