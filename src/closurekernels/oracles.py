"""Brute-force exact oracles with validated witnesses.

These are the ground truth the reduction rules are tested against, so they
are written directly from the problem definitions and kept independent of
the kernelization code. Every yes answer carries a witness that is
re-validated before being returned. Deterministic: candidate enumeration in
lexicographic order by increasing size.
"""
from __future__ import annotations

from itertools import combinations, product
from typing import Iterable

from .graph import (
    Graph,
    Record,
    is_clique,
    is_connected_set,
    is_independent_set,
    is_vertex_cover,
)

DEFAULT_VERTEX_CAP = 14
DEFAULT_EDGE_CAP = 25


class OracleCapExceeded(ValueError):
    """Instance larger than the oracle size cap."""


def _check_cap(g: Graph, max_n: int | None, max_m: int | None) -> None:
    cap_n = DEFAULT_VERTEX_CAP if max_n is None else max_n
    cap_m = DEFAULT_EDGE_CAP if max_m is None else max_m
    if g.n > cap_n:
        raise OracleCapExceeded(
            f"{g.n} vertices exceeds the oracle cap of {cap_n} (raise --oracle-cap to override)"
        )
    if g.m > cap_m:
        raise OracleCapExceeded(
            f"{g.m} edges exceeds the oracle cap of {cap_m} (raise --oracle-cap to override)"
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
# capacitated vertex cover

def capvc_assignment_feasible(g: Graph, cover: frozenset[int], cap: tuple[int, ...]) -> bool:
    """Can every edge be mapped to an endpoint in `cover` within capacities?

    Bipartite b-matching solved as unit-augmenting max flow: edges on the
    left, cover vertices on the right with capacity max(cap, 0). A vertex
    with negative capacity can sit in the cover but cannot take any edge.
    """
    if not is_vertex_cover(g, cover):
        return False
    edges = g.edges()
    cov = sorted(cover)
    idx = {v: i for i, v in enumerate(cov)}
    remaining = [max(c, 0) for c in (cap[v] for v in cov)]
    assigned: list[int | None] = [None] * len(edges)

    def _reroute(e: int, seen_v: set[int]) -> bool:
        """Give edge e a cover endpoint other than its current one, moving
        edges off a full endpoint recursively; an unassigned e may take
        either endpoint."""
        u, v = edges[e]
        for w in (u, v):
            if w not in idx:
                continue
            wi = idx[w]
            if wi == assigned[e] or wi in seen_v:
                continue
            seen_v.add(wi)
            if remaining[wi] > 0:
                remaining[wi] -= 1
                assigned[e] = wi
                return True
            for e2, a in enumerate(assigned):
                if a == wi and _reroute(e2, seen_v):
                    assigned[e] = wi
                    return True
        return False

    for e in range(len(edges)):
        if not _reroute(e, set()):
            return False
    return True


def solve_capvc_exact(g: Graph, cap: tuple[int, ...], k: int,
                      max_n: int | None = None, max_m: int | None = None) -> OracleResult:
    """Exact capacitated vertex cover decision.

    Enumerates vertex covers of size <= k by branching on an uncovered edge,
    then pads each cover up to the budget with extra vertices (extra
    capacity can be necessary even when the cover alone is not feasible)
    and checks assignment feasibility by augmenting-path flow.
    """
    if len(cap) != g.n:
        raise ValueError("capacity vector length must equal vertex count")
    if k < 0:
        return OracleResult(False, stats={"feasibility_checks": 0})
    _check_cap(g, max_n, max_m)
    edges = g.edges()
    checks = 0
    seen_covers: set[frozenset[int]] = set()

    def branch(chosen: set[int], start: int) -> frozenset[int] | None:
        nonlocal checks
        uncovered = None
        i = start
        while i < len(edges):
            u, v = edges[i]
            if u not in chosen and v not in chosen:
                uncovered = (u, v)
                break
            i += 1
        if uncovered is None:
            base = frozenset(chosen)
            if base in seen_covers:
                return None
            seen_covers.add(base)
            # feasibility is monotone under adding vertices, and only a
            # vertex with positive capacity and an incident edge can ever
            # take an edge, so padding with the largest affordable set from
            # that pool decides every smaller padding as well
            pool = [v for v in g.vertices()
                    if v not in base and cap[v] >= 1 and g.adj(v)]
            r = min(k - len(base), len(pool))
            for add in combinations(pool, r):
                checks += 1
                s = base | frozenset(add)
                if capvc_assignment_feasible(g, s, cap):
                    return s
            return None
        if len(chosen) >= k:
            return None
        u, v = uncovered
        for w in (u, v):
            chosen.add(w)
            got = branch(chosen, i + 1)
            chosen.remove(w)
            if got is not None:
                return got
        return None

    witness = branch(set(), 0)
    if witness is not None:
        assert len(witness) <= k and capvc_assignment_feasible(g, witness, cap)
        return OracleResult(True, witness, {"feasibility_checks": checks})
    return OracleResult(False, stats={"feasibility_checks": checks})


# ---------------------------------------------------------------------------
# connected vertex cover, plain and annotated

def solve_convc_exact(g: Graph, k: int,
                      max_n: int | None = None, max_m: int | None = None,
                      required: frozenset[int] = frozenset()) -> OracleResult:
    """Exact connected vertex cover: S covers every edge, G[S] is connected,
    |S| <= k, and S contains `required` (the annotated variant)."""
    if k < 0:
        return OracleResult(False, stats={"subsets": 0})
    _check_cap(g, max_n, max_m)
    verts = list(g.vertices())
    count = 0
    for size in range(k + 1):
        for s in combinations(verts, size):
            count += 1
            ss = frozenset(s)
            if not required <= ss:
                continue
            if is_vertex_cover(g, ss) and is_connected_set(g, ss):
                return OracleResult(True, ss, {"subsets": count})
    return OracleResult(False, stats={"subsets": count})


# ---------------------------------------------------------------------------
# independent set / clique helpers

def solve_is_exact(g: Graph, k: int,
                   max_n: int | None = None, max_m: int | None = None) -> OracleResult:
    """Is there an independent set of size >= k?"""
    if k <= 0:
        return OracleResult(True, frozenset(), {"nodes": 0})
    _check_cap(g, max_n, max_m)
    nodes = 0
    # branch-and-bound on the lexicographically ordered vertices
    best: frozenset[int] | None = None

    def branch(start: int, chosen: list[int]) -> frozenset[int] | None:
        nonlocal nodes
        nodes += 1
        if len(chosen) >= k:
            return frozenset(chosen)
        if len(chosen) + (g.n - start) < k:
            return None
        for v in range(start, g.n):
            if all(not g.has_edge(v, u) for u in chosen):
                got = branch(v + 1, chosen + [v])
                if got is not None:
                    return got
        return None

    best = branch(0, [])
    if best is not None:
        assert is_independent_set(g, best)
        return OracleResult(True, best, {"nodes": nodes})
    return OracleResult(False, stats={"nodes": nodes})


def maximum_independent_set(g: Graph) -> frozenset[int]:
    """Largest independent set, deterministic, for desk-scale graphs."""
    best: list[int] = []

    def branch(start: int, chosen: list[int]) -> None:
        nonlocal best
        if len(chosen) > len(best):
            best = list(chosen)
        if len(chosen) + (g.n - start) <= len(best):
            return
        for v in range(start, g.n):
            if all(not g.has_edge(v, u) for u in chosen):
                branch(v + 1, chosen + [v])

    branch(0, [])
    return frozenset(best)


def minimum_vertex_cover(g: Graph) -> frozenset[int]:
    return frozenset(g.vertices()) - maximum_independent_set(g)


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


def solve_im_exact(g: Graph, k: int,
                   max_n: int | None = None, max_m: int | None = None) -> OracleResult:
    """Is there an induced matching with >= k edges?"""
    if k <= 0:
        return OracleResult(True, frozenset(), {"nodes": 0})
    _check_cap(g, max_n, max_m)
    edges = g.edges()
    nodes = 0

    def conflict(e: tuple[int, int], f: tuple[int, int]) -> bool:
        a, b = e
        c, d = f
        return len({a, b, c, d}) < 4 or g.has_edge(a, c) or g.has_edge(a, d) \
            or g.has_edge(b, c) or g.has_edge(b, d)

    def branch(start: int, chosen: list[tuple[int, int]]) -> frozenset | None:
        nonlocal nodes
        nodes += 1
        if len(chosen) >= k:
            return frozenset(chosen)
        if len(chosen) + (len(edges) - start) < k:
            return None
        for i in range(start, len(edges)):
            e = edges[i]
            if all(not conflict(e, f) for f in chosen):
                got = branch(i + 1, chosen + [e])
                if got is not None:
                    return got
        return None

    got = branch(0, [])
    if got is not None:
        assert is_induced_matching(g, got)
        return OracleResult(True, got, {"nodes": nodes})
    return OracleResult(False, stats={"nodes": nodes})


# ---------------------------------------------------------------------------
# dominating set

def is_dominating_set(g: Graph, s: Iterable[int]) -> bool:
    ss = set(s)
    return all(v in ss or (g.adj(v) & ss) for v in g.vertices())


def solve_ds_exact(g: Graph, k: int,
                   max_n: int | None = None, max_m: int | None = None,
                   forbidden: frozenset[int] = frozenset()) -> OracleResult:
    """Is there a dominating set of size <= k avoiding `forbidden`?"""
    if k < 0:
        return OracleResult(False, stats={"subsets": 0})
    _check_cap(g, max_n, max_m)
    verts = [v for v in g.vertices() if v not in forbidden]
    count = 0
    for size in range(k + 1):
        for s in combinations(verts, size):
            count += 1
            ss = frozenset(s)
            if is_dominating_set(g, ss):
                return OracleResult(True, ss, {"subsets": count})
    return OracleResult(False, stats={"subsets": count})


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


def solve_coc_exact(g: Graph, ell: int, k: int,
                    max_n: int | None = None, max_m: int | None = None) -> OracleResult:
    """Connected deletion set S, |S| <= k, all components of G - S have <= ell
    vertices. The empty set is a connected deletion set."""
    if ell < 1:
        raise ValueError("component bound must be positive")
    if k < 0:
        return OracleResult(False, stats={"subsets": 0})
    _check_cap(g, max_n, max_m)
    verts = list(g.vertices())
    count = 0
    for size in range(k + 1):
        for s in combinations(verts, size):
            count += 1
            ss = frozenset(s)
            if is_connected_set(g, ss) and coc_components_ok(g, ss, ell):
                return OracleResult(True, ss, {"subsets": count})
    return OracleResult(False, stats={"subsets": count})


# ---------------------------------------------------------------------------
# multicolored independent set on clique parts

def solve_multicolored_is_exact(g: Graph, parts: list[tuple[int, ...]],
                                max_n: int | None = None, max_m: int | None = None) -> OracleResult:
    """One vertex per clique part, pairwise nonadjacent.

    parts must partition V(G) and each part must induce a clique.
    """
    _check_cap(g, max_n, max_m)
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

def solve_exact(problem, max_n: int, max_m: int) -> OracleResult:
    """The one oracle dispatch: the brute-force answer for a typed instance,
    chosen by its class's `file_kind`. An `is` instance with several parts
    asks for one vertex per part. Oracles are looked up at call time, so
    wrappers rebound over them (perfbench/tracing.py) see the calls."""
    kind = getattr(problem, "file_kind", None)
    g, k = problem.graph, problem.k
    if kind == "is":
        parts = problem.groups()
        if len(parts) <= 1:
            return solve_is_exact(g, k, max_n=max_n, max_m=max_m)
        return solve_multicolored_is_exact(g, parts, max_n=max_n, max_m=max_m)
    if kind == "capvc":
        return solve_capvc_exact(g, problem.cap, k, max_n=max_n, max_m=max_m)
    if kind == "convc":
        # an annotated instance's red vertices must be in the cover
        red = getattr(problem, "red", frozenset())
        return solve_convc_exact(g, k, max_n=max_n, max_m=max_m, required=red)
    if kind == "coc":
        return solve_coc_exact(g, problem.ell, k, max_n=max_n, max_m=max_m)
    if kind == "im":
        return solve_im_exact(g, k, max_n=max_n, max_m=max_m)
    if kind == "ds":
        return solve_ds_exact(g, k, max_n=max_n, max_m=max_m)
    raise TypeError(f"no oracle for {type(problem).__name__}")
