"""Exact combinatorial subroutines: maximum matching, the vertex cover LP,
sunflowers.

One matching routine, `maximum_matching` (blossom augmentation), serves both
the im posterior rule and the LP: the LP takes König's cover of the
bipartite double cover from that matching, and the cover it reads is the
same for every maximum matching, so the routine's choice of matching never
shows in the LP solution. All deterministic: iteration in vertex/index
order, ties to the smallest id.
"""
from __future__ import annotations

from collections import deque
from math import factorial

from .graph import Graph, Record


def maximum_matching(g: Graph) -> frozenset[tuple[int, int]]:
    """Maximum matching in a general graph, blossom-style augmentation.

    Classic O(n^3) contraction scheme: after a greedy start, BFS an
    alternating forest from each free vertex; on an odd cycle, contract to
    the base found via the matched ancestor walk. Returns edges as (u, v)
    with u < v.
    """
    n = g.n
    match = [-1] * n

    def find_augmenting(root: int) -> bool:
        used = [False] * n
        parent = [-1] * n
        base = list(range(n))
        used[root] = True
        queue = deque([root])

        def lca(a: int, b: int) -> int:
            flag = [False] * n
            x = a
            while True:
                x = base[x]
                flag[x] = True
                if match[x] == -1:
                    break
                x = parent[match[x]]
            y = b
            while True:
                y = base[y]
                if flag[y]:
                    return y
                y = parent[match[y]]

        def mark_path(v: int, b: int, child: int, in_blossom: list[bool]) -> None:
            while base[v] != b:
                in_blossom[base[v]] = True
                in_blossom[base[match[v]]] = True
                parent[v] = child
                child = match[v]
                v = parent[match[v]]

        while queue:
            v = queue.popleft()
            for to in g.neighbors(v):
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    cur_base = lca(v, to)
                    in_blossom = [False] * n
                    mark_path(v, cur_base, to, in_blossom)
                    mark_path(to, cur_base, v, in_blossom)
                    for i in range(n):
                        if in_blossom[base[i]]:
                            base[i] = cur_base
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    if match[to] == -1:
                        # augment along the alternating path back to the root
                        w = to
                        while w != -1:
                            pv = parent[w]
                            nxt = match[pv]
                            match[w] = pv
                            match[pv] = w
                            w = nxt
                        return True
                    used[match[to]] = True
                    queue.append(match[to])
        return False

    # a greedy matching first, so most vertices never start a search; a
    # search from a free vertex that finds no augmenting path would find
    # none later either, so one pass over the free vertices is enough
    for v in range(n):
        if match[v] == -1:
            for w in g.neighbors(v):
                if match[w] == -1:
                    match[v], match[w] = w, v
                    break
    for v in range(n):
        if match[v] == -1 and g.neighbors(v):
            find_augmenting(v)
    return frozenset((v, match[v]) for v in range(n) if match[v] > v)


class VcLpSolution(Record):
    """Optimal half-integral solution of the vertex cover LP.

    value2[v] is twice v's value (0, 1 or 2), so sum(value2) is exactly
    twice the objective.
    """

    __slots__ = ("value2",)
    value2: tuple[int, ...]

    @property
    def halves(self) -> frozenset[int]:
        return frozenset(v for v, x in enumerate(self.value2) if x == 1)

    @property
    def ones(self) -> frozenset[int]:
        return frozenset(v for v, x in enumerate(self.value2) if x == 2)


def vclp_half_integral(g: Graph) -> VcLpSolution:
    """Exact optimum of the vertex cover LP via the bipartite double cover.

    Each vertex v becomes a left copy v and a right copy n + v; each edge uv
    becomes (u, n + v) and (v, n + u). A minimum vertex cover of the double
    cover halves to an optimal half-integral solution. The cover is König's,
    read off `maximum_matching` of the double cover: the unreached left
    copies and the reached right copies, where "reached" means by an
    alternating path from an unmatched left copy. Those reached sets are the
    same for every maximum matching (Dulmage-Mendelsohn), so the solution
    does not depend on which one the matching routine returns.
    Combinatorial and deterministic; no numeric LP involved.
    """
    n = g.n
    nbrs = [g.neighbors(v) for v in range(n)]
    double = Graph._from_neighbors([tuple([n + w for w in ws]) for ws in nbrs] + nbrs)
    match_right = [-1] * n
    reached_left = [True] * n  # the unmatched left copies start the search
    for l, r in maximum_matching(double):  # l < n <= r
        match_right[r - n] = l
        reached_left[l] = False
    reached_right = [False] * n
    queue = deque(l for l in range(n) if reached_left[l])
    while queue:
        l = queue.popleft()
        for r in nbrs[l]:
            if not reached_right[r]:
                reached_right[r] = True
                l2 = match_right[r]
                if l2 != -1 and not reached_left[l2]:
                    reached_left[l2] = True
                    queue.append(l2)
    # v's left copy is in the cover when unreached, its right copy when reached
    return VcLpSolution(tuple([(not a) + b for a, b in zip(reached_left, reached_right)]))


def vclp_is_feasible(g: Graph, value2: tuple[int, ...]) -> bool:
    return all(value2[u] + value2[v] >= 2 for u, v in g.edges())


class Sunflower(Record):
    """Members (indices into the input family) with identical pairwise
    intersections equal to core."""

    __slots__ = ("core", "members")
    core: frozenset[int]
    members: tuple[int, ...]


def validate_sunflower(family: list[frozenset[int]], sf: Sunflower) -> bool:
    for i, a in enumerate(sf.members):
        if not family[a] >= sf.core:
            return False
        for b in sf.members[i + 1:]:
            if family[a] & family[b] != sf.core:
                return False
    return True


def find_sunflower(family: list[frozenset[int]], k: int) -> Sunflower | None:
    """Greedy sunflower extraction with at least k members.

    Either a maximal pairwise-disjoint collection reaches k (core is the
    accumulated popular elements), or the most frequent element is folded
    into the core and the search repeats on the sets containing it.
    Guaranteed to succeed whenever |family| >= sunflower_guarantee(max_size,
    k); may also succeed below.
    Duplicate sets are distinct members; identical sets pair into a valid
    sunflower (core = the set itself, empty petals).
    """
    if k <= 0:
        raise ValueError("sunflower size must be positive")
    indices = list(range(len(family)))
    sets = dict(enumerate(family))
    core: frozenset[int] = frozenset()
    while True:
        # greedy maximal pairwise-disjoint collection, scanned in index order
        chosen: list[int] = []
        occupied: set[int] = set()
        for i in indices:
            if not (sets[i] & occupied):
                chosen.append(i)
                occupied |= sets[i]
        if len(chosen) >= k:
            break
        if not occupied:
            return None  # every reduced set empty but fewer than k members
        counts: dict[int, int] = {}
        for i in indices:
            for x in sets[i]:
                counts[x] = counts.get(x, 0) + 1
        popular = max(sorted(counts), key=lambda x: counts[x])
        indices = [i for i in indices if popular in sets[i]]
        if len(indices) < k:
            return None
        sets = {i: sets[i] - {popular} for i in indices}
        core |= {popular}
    got = Sunflower(core, tuple(chosen[:k]))
    assert validate_sunflower(family, got)
    return got


def sunflower_guarantee(max_size: int, k: int) -> int:
    """Family size forcing a k-member sunflower when all sets have size <= max_size."""
    return factorial(max_size) * k ** max_size
