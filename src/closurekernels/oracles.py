"""Brute-force exact oracles with validated witnesses.

These are the ground truth the reduction rules are tested against, so they
are written directly from the problem definitions and kept independent of
the kernelization code. Every yes answer carries a witness that is
re-validated before being returned, and `is_solution` is the one
feasibility predicate per problem. Deterministic: candidate enumeration in
lexicographic order by increasing size. Two searches serve most oracles:
`_smallest_set` tries vertex sets smallest first (connected vertex cover,
dominating set, component order connectivity), and `_compatible_set` picks
pairwise compatible items depth first (independent set over vertices,
induced matching over edges). No `solve_*` oracle recurses, so deep inputs
end in an answer, not a `RecursionError`. The one size cap counts vertices.
"""
from __future__ import annotations

from itertools import combinations, product
from typing import Callable, Iterable, Sequence

from .graph import (
    Graph,
    Record,
    is_clique,
    is_connected_set,
    is_independent_set,
    is_vertex_cover,
)

DEFAULT_VERTEX_CAP = 14


class OracleCapExceeded(ValueError):
    """Instance larger than the oracle size cap."""


def _check_cap(g: Graph, max_n: int | None) -> None:
    cap_n = DEFAULT_VERTEX_CAP if max_n is None else max_n
    if g.n > cap_n:
        raise OracleCapExceeded(
            f"{g.n} vertices exceeds the oracle cap of {cap_n} (raise --oracle-cap to override)"
        )


class OracleResult(Record):
    __slots__ = ("answer", "witness", "stats")
    answer: bool
    witness: object
    stats: dict
    _defaults = {"witness": None, "stats": None}

    def __post_init__(self):
        if self.stats is None:
            object.__setattr__(self, "stats", {})


# ---------------------------------------------------------------------------
# the two shared searches

def _smallest_set(g: Graph, k: int, max_n: int | None, verts: Sequence[int],
                  accept: Callable[[frozenset[int]], bool]) -> OracleResult:
    """The first set of at most k of `verts` that `accept` takes, trying sets
    smallest first and each size in lexicographic order; `subsets` counts
    the sets tried. A negative budget answers no before the size cap."""
    if k < 0:
        return OracleResult(False, stats={"subsets": 0})
    _check_cap(g, max_n)
    count = 0
    for size in range(k + 1):
        for s in combinations(verts, size):
            count += 1
            ss = frozenset(s)
            if accept(ss):
                return OracleResult(True, ss, {"subsets": count})
    return OracleResult(False, stats={"subsets": count})


def _compatible_set(items: Sequence, k: int,
                    compatible: Callable[[object, object], bool]) -> tuple[frozenset | None, int]:
    """k pairwise compatible items, or None, and the number of search nodes.

    Depth-first search that extends the chosen items by a later item
    compatible with all of them, earliest first. A node is cut on entry when
    even the items left after it cannot bring the choice up to k. The stack
    holds, for each open node, the next index it will try.
    """
    n = len(items)
    chosen: list = []
    stack: list[int] = []
    nodes = 0
    start = 0
    while True:
        nodes += 1  # enter the node that chooses from items[start:]
        if len(chosen) >= k:
            return frozenset(chosen), nodes
        if len(chosen) + n - start >= k:
            stack.append(start)
        elif chosen:
            chosen.pop()
        # resume the deepest open node at its next compatible item
        while stack:
            i = stack[-1]
            while i < n and not all(compatible(items[i], c) for c in chosen):
                i += 1
            if i < n:
                stack[-1] = start = i + 1
                chosen.append(items[i])
                break
            stack.pop()
            if chosen:
                chosen.pop()
        else:
            return None, nodes


# ---------------------------------------------------------------------------
# capacitated vertex cover

def capvc_assignment_feasible(g: Graph, cover: frozenset[int], cap: tuple[int, ...]) -> bool:
    """Can every edge be mapped to an endpoint in `cover` within capacities?

    Bipartite b-matching solved as unit-augmenting max flow: edges on the
    left, cover vertices on the right with capacity max(cap, 0). A vertex
    with negative capacity can sit in the cover but cannot take any edge.
    Each edge is placed by a breadth-first search for a cover vertex with
    spare capacity, moving placed edges to their other endpoint on the way.
    """
    if not is_vertex_cover(g, cover):
        return False
    remaining = {v: max(cap[v], 0) for v in cover}
    held: dict[int, list[tuple[int, int]]] = {v: [] for v in cover}
    for e in g.edges():
        # came[w] = (the edge that moves into w, the vertex it leaves)
        came = {w: (e, None) for w in e if w in cover}
        queue = list(came)
        for w in queue:  # grows while it is read
            if remaining[w] > 0:
                break
            for f in held[w]:
                x = f[1] if f[0] == w else f[0]
                if x in cover and x not in came:
                    came[x] = (f, w)
                    queue.append(x)
        else:
            return False
        remaining[w] -= 1
        while w is not None:
            f, prev = came[w]
            held[w].append(f)
            if prev is not None:
                held[prev].remove(f)
            w = prev
    return True


def solve_capvc_exact(g: Graph, cap: tuple[int, ...], k: int,
                      max_n: int | None = None) -> OracleResult:
    """Exact capacitated vertex cover decision.

    Enumerates vertex covers of size <= k by branching on the first
    uncovered edge, its lower endpoint first, then pads each cover up to the
    budget with extra vertices (extra capacity can be necessary even when
    the cover alone is not feasible) and checks assignment feasibility by
    augmenting-path flow. The branch path is an explicit stack.
    """
    if len(cap) != g.n:
        raise ValueError("capacity vector length must equal vertex count")
    if k < 0:
        return OracleResult(False, stats={"feasibility_checks": 0})
    _check_cap(g, max_n)
    edges = g.edges()
    checks = 0
    seen_covers: set[frozenset[int]] = set()

    def padded(base: frozenset[int]) -> frozenset[int] | None:
        nonlocal checks
        # feasibility is monotone under adding vertices, and only a vertex
        # with positive capacity and an incident edge can ever take an
        # edge, so padding with the largest affordable set from that pool
        # decides every smaller padding as well
        pool = [v for v in g.vertices() if v not in base and cap[v] >= 1 and g.adj(v)]
        for add in combinations(pool, min(k - len(base), len(pool))):
            checks += 1
            s = base | frozenset(add)
            if capvc_assignment_feasible(g, s, cap):
                return s
        return None

    chosen: set[int] = set()
    path: list[tuple[int, int]] = []  # (edge index, endpoint taken) per branch
    witness = None
    i = 0
    while True:
        while i < len(edges) and (edges[i][0] in chosen or edges[i][1] in chosen):
            i += 1
        if i == len(edges):
            base = frozenset(chosen)
            if base not in seen_covers:
                seen_covers.add(base)
                witness = padded(base)
                if witness is not None:
                    break
        elif len(chosen) < k:
            path.append((i, 0))
            chosen.add(edges[i][0])
            i += 1
            continue
        # backtrack to the deepest branch whose upper endpoint is untried
        while path and path[-1][1] == 1:
            j, _ = path.pop()
            chosen.remove(edges[j][1])
        if not path:
            break
        j, _ = path.pop()
        chosen.remove(edges[j][0])
        path.append((j, 1))
        chosen.add(edges[j][1])
        i = j + 1
    if witness is not None:
        assert len(witness) <= k and capvc_assignment_feasible(g, witness, cap)
        return OracleResult(True, witness, {"feasibility_checks": checks})
    return OracleResult(False, stats={"feasibility_checks": checks})


# ---------------------------------------------------------------------------
# connected vertex cover, plain and annotated

def solve_convc_exact(g: Graph, k: int, max_n: int | None = None,
                      required: frozenset[int] = frozenset()) -> OracleResult:
    """Exact connected vertex cover: S covers every edge, G[S] is connected,
    |S| <= k, and S contains `required` (the annotated variant)."""
    return _smallest_set(g, k, max_n, g.vertices(), lambda s: required <= s
                         and is_vertex_cover(g, s) and is_connected_set(g, s))


# ---------------------------------------------------------------------------
# independent set / clique helpers

def solve_is_exact(g: Graph, k: int, max_n: int | None = None) -> OracleResult:
    """Is there an independent set of size >= k?"""
    if k <= 0:
        return OracleResult(True, frozenset(), {"nodes": 0})
    _check_cap(g, max_n)
    best, nodes = _compatible_set(g.vertices(), k, lambda v, u: not g.has_edge(v, u))
    if best is not None:
        assert is_independent_set(g, best)
        return OracleResult(True, best, {"nodes": nodes})
    return OracleResult(False, stats={"nodes": nodes})


# ---------------------------------------------------------------------------
# induced matching

def is_induced_matching(g: Graph, edges: Iterable[tuple[int, int]]) -> bool:
    es = [tuple(sorted(e)) for e in edges]
    verts: set[int] = set()
    for u, v in es:
        if not g.has_edge(u, v) or u in verts or v in verts:
            return False
        verts.update((u, v))
    for (a, b), (c, d) in combinations(es, 2):
        if g.has_edge(a, c) or g.has_edge(a, d) or g.has_edge(b, c) or g.has_edge(b, d):
            return False
    return True


def solve_im_exact(g: Graph, k: int, max_n: int | None = None) -> OracleResult:
    """Is there an induced matching with >= k edges?"""
    if k <= 0:
        return OracleResult(True, frozenset(), {"nodes": 0})
    _check_cap(g, max_n)

    def compatible(e: tuple[int, int], f: tuple[int, int]) -> bool:
        a, b = e
        c, d = f
        return len({a, b, c, d}) == 4 and not (g.has_edge(a, c) or g.has_edge(a, d)
                                               or g.has_edge(b, c) or g.has_edge(b, d))

    got, nodes = _compatible_set(g.edges(), k, compatible)
    if got is not None:
        assert is_induced_matching(g, got)
        return OracleResult(True, got, {"nodes": nodes})
    return OracleResult(False, stats={"nodes": nodes})


# ---------------------------------------------------------------------------
# dominating set

def is_dominating_set(g: Graph, s: Iterable[int]) -> bool:
    ss = set(s)
    return all(v in ss or (g.adj(v) & ss) for v in g.vertices())


def solve_ds_exact(g: Graph, k: int, max_n: int | None = None) -> OracleResult:
    """Is there a dominating set of size <= k?"""
    return _smallest_set(g, k, max_n, g.vertices(), lambda s: is_dominating_set(g, s))


# ---------------------------------------------------------------------------
# component order connectivity (connected deletion set variant)

def coc_components_ok(g: Graph, deleted: frozenset[int], ell: int) -> bool:
    """Do all components of G - deleted have at most ell vertices?"""
    keep = [v for v in g.vertices() if v not in deleted]
    seen: set[int] = set()
    for start in keep:
        if start in seen:
            continue
        stack = [start]
        seen.add(start)
        csize = 0
        while stack:
            v = stack.pop()
            csize += 1
            for w in g.neighbors(v):
                if w not in deleted and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if csize > ell:
            return False
    return True


def solve_coc_exact(g: Graph, ell: int, k: int, max_n: int | None = None) -> OracleResult:
    """Connected deletion set S, |S| <= k, all components of G - S have <= ell
    vertices. The empty set is a connected deletion set."""
    if ell < 1:
        raise ValueError("component bound must be positive")
    return _smallest_set(g, k, max_n, g.vertices(), lambda s: is_connected_set(g, s)
                         and coc_components_ok(g, s, ell))


# ---------------------------------------------------------------------------
# multicolored independent set on clique parts

def solve_multicolored_is_exact(g: Graph, parts: list[tuple[int, ...]],
                                max_n: int | None = None) -> OracleResult:
    """One vertex per clique part, pairwise nonadjacent.

    parts must partition V(G) and each part must induce a clique.
    """
    _check_cap(g, max_n)
    flat = sorted(v for p in parts for v in p)
    if flat != list(g.vertices()):
        raise ValueError("parts must partition the vertex set")
    for p in parts:
        if not is_clique(g, p):
            raise ValueError("every part must induce a clique")
    count = 0
    for pick in product(*[sorted(p) for p in parts]):
        count += 1
        if is_independent_set(g, pick):
            return OracleResult(True, tuple(pick), {"combinations": count})
    return OracleResult(False, stats={"combinations": count})


# ---------------------------------------------------------------------------
# exact set cover with uniform set size

def solve_exact_set_cover(universe_size: int, family: list[frozenset[int]],
                          lam: int, k: int) -> OracleResult:
    """k pairwise disjoint family sets covering a universe of size lam*k.

    Every family set must have exactly lam elements inside the universe.
    """
    if universe_size != lam * k:
        raise ValueError("universe size must be lam * k")
    for s in family:
        if len(s) != lam:
            raise ValueError("every set must have exactly lam elements")
        if any(x < 0 or x >= universe_size for x in s):
            raise ValueError("set element outside the universe")
    count = 0
    for pick in combinations(range(len(family)), k):
        count += 1
        union: set[int] = set()
        ok = True
        for i in pick:
            if family[i] & union:
                ok = False
                break
            union |= family[i]
        if ok and len(union) == universe_size:
            return OracleResult(True, tuple(pick), {"combinations": count})
    return OracleResult(False, stats={"combinations": count})


# ---------------------------------------------------------------------------
# dispatch by problem

def solve_exact(problem, max_n: int) -> OracleResult:
    """The one oracle dispatch: the brute-force answer for a typed instance,
    chosen by its class's `file_kind`, refused above `max_n` vertices. An
    `is` instance with several parts asks for one vertex per part. Oracles
    are looked up at call time, so wrappers rebound over them
    (perfbench/tracing.py) see the calls."""
    kind = getattr(problem, "file_kind", None)
    g, k = problem.graph, problem.k
    if kind == "is":
        parts = problem.groups()
        if len(parts) <= 1:
            return solve_is_exact(g, k, max_n=max_n)
        return solve_multicolored_is_exact(g, parts, max_n=max_n)
    if kind == "capvc":
        return solve_capvc_exact(g, problem.cap, k, max_n=max_n)
    if kind == "convc":
        # an annotated instance's red vertices must be in the cover
        return solve_convc_exact(g, k, max_n, getattr(problem, "red", frozenset()))
    if kind == "coc":
        return solve_coc_exact(g, problem.ell, k, max_n=max_n)
    if kind == "im":
        return solve_im_exact(g, k, max_n=max_n)
    if kind == "ds":
        return solve_ds_exact(g, k, max_n=max_n)
    raise TypeError(f"no oracle for {type(problem).__name__}")


def is_solution(problem, witness) -> bool:
    """The one feasibility predicate per problem: does `witness` solve the
    typed instance? The witness is a set of edges for im and a set of
    vertices otherwise. An `is` instance with several parts asks for one
    vertex from each part, pairwise nonadjacent."""
    kind = getattr(problem, "file_kind", None)
    g, k = problem.graph, problem.k
    if kind == "im":
        return len(witness) >= k and is_induced_matching(g, witness)
    s = frozenset(witness)
    if kind == "is":
        parts = problem.groups()
        if len(parts) <= 1:
            return len(s) >= k and is_independent_set(g, s)
        return (len(s) == len(parts) and all(len(s.intersection(p)) == 1 for p in parts)
                and is_independent_set(g, s))
    if len(s) > k:
        return False
    if kind == "capvc":
        return capvc_assignment_feasible(g, s, problem.cap)
    if kind == "convc":
        red = getattr(problem, "red", frozenset())
        return red <= s and is_vertex_cover(g, s) and is_connected_set(g, s)
    if kind == "coc":
        return is_connected_set(g, s) and coc_components_ok(g, s, problem.ell)
    if kind == "ds":
        return is_dominating_set(g, s)
    raise TypeError(f"no predicate for {type(problem).__name__}")
