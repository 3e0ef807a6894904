"""Exact combinatorial subroutines: matchings, the vertex cover LP, sunflowers.

All deterministic: iteration in vertex/index order, ties to the smallest id.
"""
from __future__ import annotations

from collections import deque
from math import factorial

from .graph import Graph, Record


def maximum_matching(g: Graph) -> frozenset[tuple[int, int]]:
    """Maximum matching in a general graph, blossom-style augmentation.

    Classic O(n^3) contraction scheme: BFS an alternating forest from each
    free vertex; on an odd cycle, contract to the base found via the matched
    ancestor walk. Returns edges as (u, v) with u < v.
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

    for v in range(n):
        if match[v] == -1:
            find_augmenting(v)
    return frozenset((v, match[v]) for v in range(n) if match[v] > v)


def is_matching(g: Graph, edges: frozenset[tuple[int, int]]) -> bool:
    seen: set[int] = set()
    for u, v in edges:
        if not g.has_edge(u, v) or u in seen or v in seen:
            return False
        seen.update((u, v))
    return True


def _bipartite_max_matching(n_left: int, n_right: int, adj: list[list[int]]) -> list[int]:
    # Kuhn's augmenting-path matching; adj[l] lists right-neighbors ascending.
    # Returns match_right where match_right[r] = matched left vertex or -1.
    match_right = [-1] * n_right
    for root in range(n_left):
        seen = [False] * n_right
        stack = [[root, iter(adj[root]), -1]]  # [left vertex, unscanned neighbors, right vertex tried]
        while stack:
            stack[-1][2] = r = next((r for r in stack[-1][1] if not seen[r]), -1)
            if r == -1:
                stack.pop()
            elif match_right[r] == -1:
                for l, _, r in stack:  # augment along the stack
                    match_right[r] = l
                break
            else:
                seen[r] = True
                stack.append([match_right[r], iter(adj[match_right[r]]), -1])
    return match_right


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

    Each vertex v becomes a left copy and a right copy; each edge uv becomes
    L_u R_v and L_v R_u. A minimum vertex cover of the double cover (Konig
    from a maximum matching) halves to an optimal half-integral solution.
    Combinatorial and deterministic; no numeric LP involved.
    """
    n = g.n
    adj = [[w for w in g.neighbors(v)] for v in range(n)]
    match_right = _bipartite_max_matching(n, n, adj)
    match_left = [-1] * n
    for r, l in enumerate(match_right):
        if l != -1:
            match_left[l] = r

    # Konig: alternate from unmatched left vertices; cover is
    # (unreached left) union (reached right)
    reached_left = [False] * n
    reached_right = [False] * n
    queue = deque(l for l in range(n) if match_left[l] == -1)
    for l in queue:
        reached_left[l] = True
    while queue:
        l = queue.popleft()
        for r in adj[l]:
            if not reached_right[r]:
                reached_right[r] = True
                l2 = match_right[r]
                if l2 != -1 and not reached_left[l2]:
                    reached_left[l2] = True
                    queue.append(l2)

    value2 = [0] * n
    for v in range(n):
        in_cover_left = not reached_left[v]
        in_cover_right = reached_right[v]
        value2[v] = int(in_cover_left) + int(in_cover_right)
    return VcLpSolution(tuple(value2))


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
    into the core and the sets containing it recurse. Guaranteed to succeed
    whenever |family| >= sunflower_guarantee(max_size, k); may also succeed
    below.
    Duplicate sets are distinct members; identical sets pair into a valid
    sunflower (core = the set itself, empty petals).
    """
    if k <= 0:
        raise ValueError("sunflower size must be positive")

    def recurse(indices: list[int], sets: dict[int, frozenset[int]], core: frozenset[int]) -> Sunflower | None:
        # greedy maximal pairwise-disjoint collection, scanned in index order
        chosen: list[int] = []
        occupied: set[int] = set()
        for i in indices:
            if not (sets[i] & occupied):
                chosen.append(i)
                occupied |= sets[i]
        if len(chosen) >= k:
            return Sunflower(core, tuple(chosen[:k]))
        if not occupied:
            return None  # every reduced set empty but fewer than k members
        counts: dict[int, int] = {}
        for i in indices:
            for x in sets[i]:
                counts[x] = counts.get(x, 0) + 1
        popular = max(sorted(counts), key=lambda x: counts[x])
        sub = [i for i in indices if popular in sets[i]]
        if len(sub) < k:
            return None
        return recurse(sub, {i: sets[i] - {popular} for i in sub}, core | {popular})

    got = recurse(list(range(len(family))), dict(enumerate(family)), frozenset())
    if got is not None:
        assert validate_sunflower(family, got)
    return got


def sunflower_guarantee(max_size: int, k: int) -> int:
    """Family size forcing a k-member sunflower when all sets have size <= max_size."""
    return factorial(max_size) * k ** max_size
