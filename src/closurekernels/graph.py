"""Immutable undirected graphs with dense integer vertex ids.

Adjacency is stored as frozensets plus sorted tuples, so membership and
intersection tests are cheap and all iteration orders are fixed by vertex
id. The polynomial layers built on it handle sparse graphs with thousands
of vertices; the exact oracles stay exponential and are capped.
`first_clique` is the bitmask clique search that four exact oracles and
the Ramsey fallback use to find the first k pairwise-compatible items.
"""
from __future__ import annotations

from functools import wraps
from itertools import combinations
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")


class Record:
    """Immutable value object whose fields are the subclass's `__slots__`.

    Fields without an argument take their value from the class's `_defaults`
    table; `__post_init__` then validates. Records are equal when they have
    the same class and equal fields, and hash by their fields.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} fields")
        put = object.__setattr__
        for name, value in zip(names, args):
            put(self, name, value)
        for name in names[len(args):]:
            if name in kwargs:
                put(self, name, kwargs.pop(name))
            elif name in self._defaults:
                put(self, name, self._defaults[name])
            else:
                raise TypeError(f"{type(self).__name__} needs field {name!r}")
        if kwargs:
            raise TypeError(f"{type(self).__name__} has no field {min(kwargs)!r}")
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def replace(self, **changes):
        """A copy with the given fields changed, validated again."""
        values = [changes.pop(name, getattr(self, name)) for name in self.__slots__]
        return type(self)(*values, **changes)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class Graph:
    """Simple undirected graph on vertices 0..n-1. No loops, no multi-edges."""

    __slots__ = ("n", "_sets", "_nbrs", "_m")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adj: list[set[int]] = [set() for _ in range(n)]
        m = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if v not in adj[u]:
                adj[u].add(v)
                adj[v].add(u)
                m += 1
        self.n = n
        self._m = m
        self._sets = tuple(frozenset(s) for s in adj)
        self._nbrs = tuple(tuple(sorted(s)) for s in adj)

    @classmethod
    def _from_neighbors(cls, nbrs: list[tuple[int, ...]]) -> Graph:
        """Trusted constructor: nbrs[v] is v's sorted neighbor tuple, already
        symmetric and free of loops, out-of-range ids and duplicates."""
        g = object.__new__(cls)
        g.n = len(nbrs)
        g._m = sum(map(len, nbrs)) // 2
        g._sets = tuple(map(frozenset, nbrs))
        g._nbrs = tuple(nbrs)
        return g

    @property
    def m(self) -> int:
        return self._m

    def vertices(self) -> range:
        return range(self.n)

    def adj(self, v: int) -> frozenset[int]:
        """Open neighborhood N(v) as a frozenset."""
        return self._sets[v]

    def adjacency(self) -> tuple[frozenset[int], ...]:
        """N(v) for every vertex v, indexed by v."""
        return self._sets

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Open neighborhood N(v), sorted ascending."""
        return self._nbrs[v]

    def closed_adj(self, v: int) -> frozenset[int]:
        """Closed neighborhood N[v]."""
        return self._sets[v] | {v}

    def degree(self, v: int) -> int:
        return len(self._sets[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._sets[u]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted lexicographically."""
        out = []
        for u in range(self.n):
            for v in self._nbrs[u]:
                if u < v:
                    out.append((u, v))
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._sets == other._sets

    def __hash__(self) -> int:
        return hash((self.n, self._sets))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self._m})"

    def adjacency_masks(self) -> list[int]:
        """Per-vertex neighborhood bitmasks (bit v set iff edge to v)."""
        masks = []
        for nb in self._nbrs:
            mask = 0
            for w in nb:
                mask |= 1 << w
            masks.append(mask)
        return masks


def last_graph_memo(fn: Callable[[Graph], T]) -> Callable[[Graph], T]:
    """Remember fn's result for the last graph it was called on, keyed by
    identity. A Graph never changes, so the result stays valid; the memo
    holds a strong reference to that one graph, so its id cannot be reused
    by another while the entry lives."""
    last: tuple = (None, None)

    @wraps(fn)
    def memo(g: Graph) -> T:
        nonlocal last
        if last[0] is not g:
            last = (g, fn(g))
        return last[1]

    return memo


def complete_graph(n: int) -> Graph:
    return Graph(n, combinations(range(n), 2))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(leaves: int) -> Graph:
    """K_{1,leaves} with the hub at id 0."""
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b}; side A is 0..a-1, side B is a..a+b-1."""
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def induced_subgraph(g: Graph, keep: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on `keep`, renumbered densely.

    Returns (subgraph, idmap) where idmap[new_id] = old_id. The map is sorted,
    so renumbering is order-preserving and keeps neighbor tuples sorted.
    """
    idmap = tuple(sorted(set(keep)))
    for v in idmap:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range")
    back = {old: new for new, old in enumerate(idmap)}
    nbrs = g._nbrs
    return Graph._from_neighbors([tuple([back[w] for w in nbrs[v] if w in back])
                                  for v in idmap]), idmap


def delete_vertices(g: Graph, remove: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Complement of induced_subgraph: drop `remove`, renumber the rest."""
    rem = set(remove)
    return induced_subgraph(g, (v for v in g.vertices() if v not in rem))


def twin_classes(g: Graph) -> list[tuple[int, ...]]:
    """False twins: vertices grouped by open neighborhood, by first member."""
    groups: dict[frozenset[int], list[int]] = {}
    for v in g.vertices():
        groups.setdefault(g.adj(v), []).append(v)
    return sorted((tuple(sorted(vs)) for vs in groups.values()), key=lambda t: t[0])


def is_clique(g: Graph, s: Iterable[int]) -> bool:
    vs = sorted(set(s))
    return all(g.has_edge(u, v) for u, v in combinations(vs, 2))


def is_independent_set(g: Graph, s: Iterable[int]) -> bool:
    vs = sorted(set(s))
    return not any(g.has_edge(u, v) for u, v in combinations(vs, 2))


def is_vertex_cover(g: Graph, s: Iterable[int]) -> bool:
    """Every vertex outside s has all its neighbors in s."""
    ss = set(s)
    return all(nb <= ss for v, nb in enumerate(g.adjacency()) if v not in ss)


def connected_components(g: Graph) -> list[tuple[int, ...]]:
    """Components as sorted vertex tuples, ordered by smallest member."""
    seen = [False] * g.n
    comps = []
    for start in g.vertices():
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in g.neighbors(v):
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(tuple(sorted(comp)))
    return comps


def is_connected_set(g: Graph, s: Iterable[int]) -> bool:
    """True iff G[s] is connected. The empty set counts as connected."""
    vs = set(s)
    if len(vs) <= 1:
        return True
    start = min(vs)
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in g.neighbors(v):
            if w in vs and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == vs


def maximal_cliques(g: Graph) -> list[tuple[int, ...]]:
    """All maximal cliques via pivoting Bron–Kerbosch, as sorted tuples.

    The search keeps its open nodes on an explicit stack, so a clique of
    any size needs no recursion. Output order is deterministic (sorted
    lexicographically at the end). The single empty clique is reported for
    the empty graph.
    """
    if g.n == 0:
        return [()]
    out: list[tuple[int, ...]] = []
    adj = g._sets

    def node(r: tuple[int, ...], p: set[int], x: set[int]):
        # pivot: vertex of p|x maximizing |p & N(u)|, ties by smallest id
        pivot = max(sorted(p | x), key=lambda u: len(p & adj[u]))
        return r, p, x, iter(sorted(p - adj[pivot]))

    stack = [node((), set(g.vertices()), set())]
    while stack:
        r, p, x, branches = stack[-1]
        v = next(branches, None)
        if v is None:
            stack.pop()
            continue
        child_p, child_x = p & adj[v], x & adj[v]
        p.remove(v)
        x.add(v)
        # with no candidates left, r + v is maximal unless an excluded
        # vertex extends it
        if child_p:
            stack.append(node(r + (v,), child_p, child_x))
        elif not child_x:
            out.append(tuple(sorted(r + (v,))))
    return sorted(out)


def clique_number(g: Graph) -> int:
    if g.n == 0:
        return 0
    return max(len(c) for c in maximal_cliques(g))


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


def contains_biclique(g: Graph, r: int, s: int) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Search for K_{r,s} as a (not necessarily induced) subgraph.

    Returns (side_r, side_s) as sorted vertex tuples, or None. Exhaustive with
    common-neighborhood pruning; smallest witness in lexicographic order.
    """
    if r < 1 or s < 1:
        raise ValueError("biclique sides must be positive")
    # enumerate the smaller side to cut the search space
    if r > s:
        hit = contains_biclique(g, s, r)
        if hit is None:
            return None
        return hit[1], hit[0]

    verts = list(g.vertices())

    def extend(chosen: list[int], common: frozenset[int], start: int) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        if len(chosen) == r:
            if len(common) >= s:
                return tuple(chosen), tuple(sorted(common)[:s])
            return None
        need = r - len(chosen)
        for i in range(start, g.n - need + 1):
            v = verts[i]
            new_common = common & g.adj(v) if chosen else g.adj(v)
            # remaining picks can only shrink the common side further
            if len(new_common) < s:
                continue
            hit = extend(chosen + [v], new_common, i + 1)
            if hit is not None:
                return hit
        return None

    return extend([], frozenset(), 0)
