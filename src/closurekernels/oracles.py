"""Brute-force exact oracles with validated witnesses.

These are the ground truth the reduction rules are tested against, so they
are written directly from the problem definitions and kept independent of
the kernelization code. Every yes answer carries a witness. `solve_exact`
is the one checked entry point: it dispatches on the instance's kind and
raises RuntimeError unless a yes answer's witness passes `is_solution`, the
one feasibility predicate per problem. The check is a raise, not an assert,
so `python -O` keeps it. The per-problem `solve_*` oracles do not check
their own witnesses; `solve_exact_set_cover`, which has no problem class
and is not dispatched, asserts its cover. Deterministic: candidate
enumeration in lexicographic order by increasing size. Two searches serve
most oracles. `_smallest_set` tries vertex sets smallest first (connected
vertex cover, dominating set, component order connectivity) as `int` masks,
tested by mask forms of the set predicates; `is_solution` checks each yes
witness with the set predicates themselves.
`cliquesearch.first_clique` finds the first k pairwise-compatible items over
bitmasks: independent set over vertices, induced matching over edges,
multicolored independent set over the vertices in part order, and exact set
cover over the family. The capacitated vertex cover oracle branches on
`int` masks of its chosen vertices and of each edge's endpoints. It always
branches on the first uncovered edge, so a branch node's whole subtree
depends on its chosen mask alone; a mask met again can only reach covers
already checked, and is skipped. No
`solve_*` oracle recurses, so deep inputs end in an answer, not a
`RecursionError`. The one size cap counts vertices.
"""
from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterable

from .cliquesearch import first_clique
from .graph import Graph, Record, is_clique, is_independent_set

DEFAULT_VERTEX_CAP = 14


class OracleCapExceeded(ValueError):
    """Instance larger than the oracle size cap."""


def _check_cap(g: Graph, max_n: int | None) -> None:
    cap_n = DEFAULT_VERTEX_CAP if max_n is None else max_n
    if g.n > cap_n:
        raise OracleCapExceeded(f"{g.n} vertices exceeds the oracle cap of {cap_n}")


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
# the subset search

def _smallest_set(g: Graph, k: int, max_n: int | None,
                  accept: Callable[[int], bool]) -> OracleResult:
    """The first vertex set of at most k vertices that `accept` takes,
    trying sets smallest first and each size in lexicographic order; `subsets`
    counts the sets tried. `accept` gets the set as an `int` mask and the
    witness is its `frozenset`. Each set is tried once, and the mask
    predicates below are the set predicates' forms on masks, so `subsets`
    and the witness are those of a search on sets. Sizes stop at n, so a
    budget above n costs no more than n. A negative budget answers no
    before the size cap."""
    if k < 0:
        return OracleResult(False, stats={"subsets": 0})
    _check_cap(g, max_n)
    bits = [1 << v for v in g.vertices()]
    count = 0
    for size in range(min(k, g.n) + 1):
        for s in combinations(bits, size):
            count += 1
            mask = sum(s)
            if accept(mask):
                return OracleResult(True, frozenset(b.bit_length() - 1 for b in s),
                                    {"subsets": count})
    return OracleResult(False, stats={"subsets": count})


def _component(masks: list[int], within: int, start: int) -> int:
    """The mask of the component of G[within] that holds the `start` bit."""
    comp = frontier = start
    while frontier:
        reach = 0
        while frontier:
            b = frontier & -frontier
            frontier ^= b
            reach |= masks[b.bit_length() - 1]
        frontier = reach & within & ~comp
        comp |= frontier
    return comp


def _covers_mask(spans: list[int], s: int) -> bool:
    """`is_vertex_cover` on masks: s meets every edge's endpoint mask."""
    for e in spans:
        if not e & s:
            return False
    return True


def _connected_mask(masks: list[int], s: int) -> bool:
    """`is_connected_set` on a mask."""
    return s == 0 or _component(masks, s, s & -s) == s


def _dominates_mask(closed: list[int], s: int) -> bool:
    """`is_dominating_set` on masks: s meets every closed neighbourhood."""
    for c in closed:
        if not c & s:
            return False
    return True


def _components_within_mask(masks: list[int], deleted: int, ell: int) -> bool:
    """`coc_components_ok` on a mask."""
    rest = ((1 << len(masks)) - 1) & ~deleted
    while rest:
        comp = _component(masks, rest, rest & -rest)
        if comp.bit_count() > ell:
            return False
        rest ^= comp
    return True


# ---------------------------------------------------------------------------
# cover and connectivity predicates

def is_vertex_cover(g: Graph, s: Iterable[int]) -> bool:
    """Every vertex outside s has all its neighbors in s."""
    ss = set(s)
    return all(nb <= ss for v, nb in enumerate(g.adjacency()) if v not in ss)


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
    return is_vertex_cover(g, cover) and _place_edges(g.edges(), cover, cap)


def _place_edges(edges: list[tuple[int, int]], cover: frozenset[int],
                 cap: tuple[int, ...]) -> bool:
    """`capvc_assignment_feasible` for a `cover` known to cover `edges`.
    A cover whose total capacity is below the edge count fails at once."""
    remaining = {v: max(cap[v], 0) for v in cover}
    if sum(remaining.values()) < len(edges):
        return False
    held: dict[int, list[tuple[int, int]]] = {v: [] for v in cover}
    for e in edges:
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
    augmenting-path flow. The branch path is an explicit stack; the chosen
    vertices and each edge's endpoints are `int` masks, so finding the next
    uncovered edge is one `&` per edge.

    Every edge before a node's scan position is covered, so the next
    uncovered edge, the budget left (one vertex per branch) and so the whole
    subtree depend on the chosen mask alone. Each mask is explored once: a
    repeated one can only reach covers its first visit checked, none of
    which passed. The distinct covers come in the same order, so the
    witness and `feasibility_checks` are those of the full tree.
    """
    if len(cap) != g.n:
        raise ValueError("capacity vector length must equal vertex count")
    if k < 0:
        return OracleResult(False, stats={"feasibility_checks": 0})
    _check_cap(g, max_n)
    edges = g.edges()
    m = len(edges)
    lows = [1 << u for u, _ in edges]
    highs = [1 << v for _, v in edges]
    # a trailing 0 ends every scan for an uncovered edge at index m
    spans = [lo | hi for lo, hi in zip(lows, highs)] + [0]
    # only a vertex with positive capacity and an incident edge can ever
    # take an edge
    takers = [v for v in g.vertices() if cap[v] >= 1 and g.adj(v)]
    checks = 0
    # the chosen masks of the covers checked and of the inner nodes branched on
    seen: set[int] = set()

    def padded(base: int) -> frozenset[int] | None:
        nonlocal checks
        # feasibility is monotone under adding vertices, so padding with
        # the largest affordable set of takers decides every smaller
        # padding as well; base covers every edge, so each padding does
        members = frozenset(v for v in g.vertices() if base >> v & 1)
        pool = [v for v in takers if not base >> v & 1]
        for add in combinations(pool, min(k - len(members), len(pool))):
            checks += 1
            s = members.union(add)
            if _place_edges(edges, s, cap):
                return s
        return None

    chosen = 0  # mask of the vertices taken on the branch path, one per branch
    path: list[int] = []  # per branch its edge index j; ~j once the upper endpoint is taken
    witness = None
    i = 0
    while True:
        while spans[i] & chosen:
            i += 1
        if chosen in seen:
            pass  # its subtree reaches only covers checked already
        elif i == m:
            seen.add(chosen)
            witness = padded(chosen)
            if witness is not None:
                break
        elif len(path) < k:
            seen.add(chosen)
            path.append(i)
            chosen |= lows[i]
            i += 1
            continue
        # backtrack to the deepest branch whose upper endpoint is untried
        while path and path[-1] < 0:
            chosen ^= highs[~path.pop()]
        if not path:
            break
        j = path.pop()
        chosen ^= spans[j]  # swap the lower endpoint for the upper one
        path.append(~j)
        i = j + 1
    if witness is not None:
        return OracleResult(True, witness, {"feasibility_checks": checks})
    return OracleResult(False, stats={"feasibility_checks": checks})


# ---------------------------------------------------------------------------
# connected vertex cover, plain and annotated

def solve_convc_exact(g: Graph, k: int, max_n: int | None = None,
                      required: frozenset[int] = frozenset()) -> OracleResult:
    """Exact connected vertex cover: S covers every edge, G[S] is connected,
    |S| <= k, and S contains `required` (the annotated variant)."""
    masks = g.adjacency_masks()
    spans = [1 << u | 1 << v for u, v in g.edges()]
    need = sum(1 << v for v in required)
    return _smallest_set(g, k, max_n, lambda s: not need & ~s and _covers_mask(spans, s)
                         and _connected_mask(masks, s))


# ---------------------------------------------------------------------------
# independent set / clique helpers

def solve_is_exact(g: Graph, k: int, max_n: int | None = None) -> OracleResult:
    """Is there an independent set of size >= k?"""
    if k <= 0:
        return OracleResult(True, frozenset(), {"nodes": 0})
    _check_cap(g, max_n)
    full = (1 << g.n) - 1
    got, nodes = first_clique([full ^ mask for mask in g.adjacency_masks()], k)
    best = None if got is None else frozenset(got)
    return OracleResult(best is not None, best, {"nodes": nodes})


# ---------------------------------------------------------------------------
# induced matching

def is_induced_matching(g: Graph, edges: Iterable[tuple[int, int]]) -> bool:
    """Every pair is an edge of g, no two share a vertex, and no vertex of
    one has a neighbour in another: one pass over the witness vertices'
    neighbourhoods, O(sum of their degrees)."""
    owner: dict[int, int] = {}  # witness vertex -> index of its edge
    for i, (u, v) in enumerate(edges):
        if not g.has_edge(u, v) or u in owner or v in owner:
            return False
        owner[u] = owner[v] = i
    return all(owner.get(w, i) == i for v, i in owner.items() for w in g.neighbors(v))


def solve_im_exact(g: Graph, k: int, max_n: int | None = None) -> OracleResult:
    """Is there an induced matching with >= k edges?"""
    if k <= 0:
        return OracleResult(True, frozenset(), {"nodes": 0})
    _check_cap(g, max_n)
    edges = g.edges()
    at = [0] * g.n  # per vertex, the mask of the edges at it
    for i, (u, v) in enumerate(edges):
        at[u] |= 1 << i
        at[v] |= 1 << i
    near = list(at)  # per vertex, the edges at it or at a neighbour
    for u, v in edges:
        near[u] |= at[v]
        near[v] |= at[u]
    # two edges are compatible when neither has an end at or next to the other's
    full = (1 << len(edges)) - 1
    got, nodes = first_clique([full ^ (near[u] | near[v]) for u, v in edges], k)
    matching = None if got is None else frozenset(edges[i] for i in got)
    return OracleResult(matching is not None, matching, {"nodes": nodes})


# ---------------------------------------------------------------------------
# dominating set

def is_dominating_set(g: Graph, s: Iterable[int]) -> bool:
    ss = set(s)
    return all(v in ss or (g.adj(v) & ss) for v in g.vertices())


def solve_ds_exact(g: Graph, k: int, max_n: int | None = None) -> OracleResult:
    """Is there a dominating set of size <= k?"""
    closed = [m | 1 << v for v, m in enumerate(g.adjacency_masks())]
    return _smallest_set(g, k, max_n, lambda s: _dominates_mask(closed, s))


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
    masks = g.adjacency_masks()
    return _smallest_set(g, k, max_n, lambda s: _connected_mask(masks, s)
                         and _components_within_mask(masks, s, ell))


# ---------------------------------------------------------------------------
# multicolored independent set on clique parts

def solve_multicolored_is_exact(g: Graph, parts: list[tuple[int, ...]],
                                max_n: int | None = None) -> OracleResult:
    """One vertex per clique part, pairwise nonadjacent.

    parts must partition V(G) and each part must induce a clique.
    """
    _check_cap(g, max_n)
    if sorted(v for p in parts for v in p) != list(g.vertices()):
        raise ValueError("parts must partition the vertex set")
    if not all(is_clique(g, p) for p in parts):
        raise ValueError("every part must induce a clique")
    # vertices part by part; same-part vertices are adjacent, so a set of
    # pairwise nonadjacent vertices meets each part at most once
    order = [v for p in parts for v in sorted(p)]
    pos = {v: 1 << i for i, v in enumerate(order)}
    full = (1 << g.n) - 1
    got, nodes = first_clique([full ^ sum(pos[w] for w in g.neighbors(v)) for v in order],
                              len(parts))
    pick = None if got is None else tuple(order[i] for i in got)
    return OracleResult(pick is not None, pick, {"nodes": nodes})


# ---------------------------------------------------------------------------
# exact set cover with uniform set size

def solve_exact_set_cover(universe_size: int, family: list[frozenset[int]],
                          lam: int, k: int) -> OracleResult:
    """k pairwise disjoint family sets covering a universe of size lam*k.

    Every family set must have exactly lam elements inside the universe.
    """
    if k < 0 or universe_size != lam * k:
        raise ValueError("universe size must be lam * k for a k >= 0")
    for s in family:
        if len(s) != lam:
            raise ValueError("every set must have exactly lam elements")
        if any(x < 0 or x >= universe_size for x in s):
            raise ValueError("set element outside the universe")
    # k pairwise disjoint sets of lam elements cover all lam * k
    got, nodes = first_clique([sum(1 << j for j, t in enumerate(family) if s.isdisjoint(t))
                               for s in family], k)
    assert got is None or len(frozenset().union(*(family[i] for i in got))) == universe_size
    return OracleResult(got is not None, got, {"nodes": nodes})


# ---------------------------------------------------------------------------
# dispatch by problem

def solve_exact(problem, max_n: int) -> OracleResult:
    """The one oracle dispatch and the one checked entry point: the
    brute-force answer for a typed instance, chosen by its class's
    `file_kind`, refused above `max_n` vertices. An `is` instance with
    several parts asks for one vertex per part. A yes answer's witness must
    pass `is_solution`, else RuntimeError: that is an oracle bug, not bad
    input. Oracles are looked up at call time, so wrappers rebound over
    them (perfbench/tracing.py) see the calls."""
    kind = getattr(problem, "file_kind", None)
    g, k = problem.graph, problem.k
    if kind == "is":
        parts = problem.groups()
        res = (solve_is_exact(g, k, max_n=max_n) if len(parts) <= 1
               else solve_multicolored_is_exact(g, parts, max_n=max_n))
    elif kind == "capvc":
        res = solve_capvc_exact(g, problem.cap, k, max_n=max_n)
    elif kind == "convc":
        # an annotated instance's red vertices must be in the cover
        res = solve_convc_exact(g, k, max_n, getattr(problem, "red", frozenset()))
    elif kind == "coc":
        res = solve_coc_exact(g, problem.ell, k, max_n=max_n)
    elif kind == "im":
        res = solve_im_exact(g, k, max_n=max_n)
    elif kind == "ds":
        res = solve_ds_exact(g, k, max_n=max_n)
    else:
        raise TypeError(f"no oracle for {type(problem).__name__}")
    if res.answer and res.witness is not None and not is_solution(problem, res.witness):
        raise RuntimeError("witness failed validation")
    return res


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
