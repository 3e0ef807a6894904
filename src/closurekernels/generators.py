"""Instance generators.

Named small graphs (complete, cycle, path, star, complete bipartite),
random families with controlled parameters, plus two hard-instance
constructions built from NP-hard source problems: a capacitated vertex
cover gadget over exact set cover, and an independent-set composition that
merges a grid of small multicolored-IS instances into one host graph.
Every generator is deterministic given its arguments and seed.
"""
from __future__ import annotations

import random
from itertools import combinations

from . import _lazy
from .graph import Graph, is_clique

# only the gadget's check and the weakly closed family read it
closure = _lazy("closure")


# ---------------------------------------------------------------------------
# named graphs

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
    if leaves < 0:
        raise ValueError("a star needs a nonnegative number of leaves")
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b}; side A is 0..a-1, side B is a..a+b-1."""
    if a < 0 or b < 0:
        raise ValueError("side sizes must be nonnegative")
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


# ---------------------------------------------------------------------------
# capacitated vertex cover gadget from exact set cover

def gen_capvc_lowerbound(universe_size: int, family: list[frozenset[int]],
                         lam: int, k: int) -> CapVcInstance:
    """Capacitated vertex cover instance equivalent to an exact set cover.

    The universe must have lam * k elements and every family set exactly
    lam of them. The graph holds one vertex per family set, two copies of
    the universe joined into a clique, each universe copy vertex guarded by
    a zero-capacity leaf, and the set-element incidence edges duplicated
    toward both copies. Capacities are tuned so that a cover of size
    2*lam*k + k exists exactly when k disjoint sets cover the universe.
    """
    from .capvc import CapVcInstance  # here, so that other families never load capvc
    if lam < 1 or k < 1:
        raise ValueError("lam and k must be positive")
    if universe_size != lam * k:
        raise ValueError("universe size must be lam * k")
    for s in family:
        if len(s) != lam:
            raise ValueError("every set must have exactly lam elements")
        if any(e < 0 or e >= universe_size for e in s):
            raise ValueError("set element outside the universe")

    f = len(family)
    u1 = [f + i for i in range(universe_size)]
    u2 = [f + universe_size + i for i in range(universe_size)]
    leaf1 = [f + 2 * universe_size + i for i in range(universe_size)]
    leaf2 = [f + 3 * universe_size + i for i in range(universe_size)]
    n = f + 4 * universe_size

    edges: list[tuple[int, int]] = []
    for j, s in enumerate(family):
        for e in sorted(s):
            edges.append((j, u1[e]))
            edges.append((j, u2[e]))
    clique = u1 + u2
    edges.extend(combinations(clique, 2))
    for i in range(universe_size):
        edges.append((u1[i], leaf1[i]))
        edges.append((u2[i], leaf2[i]))

    occurrences = [0] * universe_size
    for s in family:
        for e in s:
            occurrences[e] += 1

    cap = [0] * n
    for j in range(f):
        cap[j] = 2 * lam
    for i in range(universe_size):
        # formulas use the 1-based element index
        cap[u1[i]] = occurrences[i] + 2 * lam * k - (i + 1)
        cap[u2[i]] = occurrences[i] + (i + 1) - 1

    g = Graph(n, edges)
    budget = 2 * lam * k + k
    assert g.m == 2 * lam * k + 2 * lam * f + lam * k * (2 * lam * k - 1)
    assert closure.closure_number(g) <= 2 * lam + 1
    return CapVcInstance(g, tuple(cap), budget)


# ---------------------------------------------------------------------------
# independent set composition from a grid of multicolored-IS instances

_MAX_PART = 3
_MAX_DEGREE = 3


def _vector(idx: int, t: int, q: int) -> tuple[int, ...]:
    digits = []
    for _ in range(q):
        idx, d = divmod(idx, t)
        digits.append(d + 1)
    return tuple(reversed(digits))


def _check_instance(g: Graph, parts) -> None:
    flat = sorted(v for p in parts for v in p)
    if flat != list(g.vertices()):
        raise ValueError("parts must partition the instance vertex set")
    for p in parts:
        if len(p) > _MAX_PART:
            raise ValueError("part too large")
        if not is_clique(g, p):
            raise ValueError("every part must induce a clique")
    if any(len(g.adj(v)) > _MAX_DEGREE for v in g.vertices()):
        raise ValueError("instance degree too large")


def composition_layout(instances, t: int, q: int, k: int) -> dict:
    """Vertex layout shared by gen_is_composition.

    Returns instance-vertex ids keyed by (grid index, original vertex),
    selector path ids keyed by (layer, dimension), and the per-value
    selector groups keyed by (layer, dimension, value).
    """
    if q < 2 or t < 2 or k < 1:
        raise ValueError("need q >= 2, t >= 2, k >= 1")
    if len(instances) != t ** q:
        raise ValueError("need one instance per grid point")
    for g, parts in instances:
        if len(parts) != k:
            raise ValueError("every instance needs exactly k parts")
        _check_instance(g, parts)

    inst_ids: dict[tuple[int, int], int] = {}
    path_ids: dict[tuple[int, int], tuple[int, ...]] = {}
    nxt = 0
    for layer in range(k):
        for x_idx, (g, parts) in enumerate(instances):
            for v in sorted(parts[layer]):
                inst_ids[(x_idx, v)] = nxt
                nxt += 1
        for r in range(q):
            path_ids[(layer, r)] = tuple(range(nxt, nxt + 2 * t - 2))
            nxt += 2 * t - 2

    groups: dict[tuple[int, int, int], tuple[int, ...]] = {}
    for layer in range(k):
        for r in range(q):
            ids = path_ids[(layer, r)]
            # path position 2j-1 carries label (j, 1), position 2j
            # carries label (j+1, 2); group j collects its two labels
            groups[(layer, r, 1)] = (ids[0],)
            groups[(layer, r, t)] = (ids[2 * t - 3],)
            for j in range(2, t):
                groups[(layer, r, j)] = (ids[2 * j - 3], ids[2 * j - 2])
    return {"instance_ids": inst_ids, "path_ids": path_ids,
            "groups": groups, "n": nxt}


def gen_is_composition(instances, t: int, q: int, k: int) -> tuple[Graph, int]:
    """One independent-set instance answering "is some grid instance a yes".

    instances lists the t^q multicolored-IS inputs in row-major grid order,
    each a (graph, parts) pair with k clique parts, part size and degree
    constant-bounded. The host graph carries every part in its layer,
    selector paths on 2t-2 vertices per layer and dimension, per-value
    cliques tying parts to selector groups, the original instance edges,
    and crossing edges between consecutive layers. The returned budget is
    q*k*t - q*k + k.
    """
    layout = composition_layout(instances, t, q, k)
    inst_ids = layout["instance_ids"]
    path_ids = layout["path_ids"]
    groups = layout["groups"]

    edges: set[tuple[int, int]] = set()

    def add(u: int, v: int) -> None:
        if u != v:
            edges.add((min(u, v), max(u, v)))

    for layer in range(k):
        for r in range(q):
            ids = path_ids[(layer, r)]
            for a, b in zip(ids, ids[1:]):
                add(a, b)
    vectors = [_vector(i, t, q) for i in range(len(instances))]
    for layer in range(k):
        for r in range(q):
            for j in range(1, t + 1):
                members = list(groups[(layer, r, j)])
                for x_idx, (g, parts) in enumerate(instances):
                    if vectors[x_idx][r] == j:
                        members.extend(inst_ids[(x_idx, v)]
                                       for v in sorted(parts[layer]))
                for a, b in combinations(members, 2):
                    add(a, b)
    for x_idx, (g, parts) in enumerate(instances):
        for u, v in g.edges():
            add(inst_ids[(x_idx, u)], inst_ids[(x_idx, v)])
    for layer in range(k - 1):
        for r in range(q):
            here = path_ids[(layer, r)]
            there = path_ids[(layer + 1, r)]
            for j in range(1, t):
                # label (j, 1) sits at path index 2j-2, label (j+1, 2)
                # at index 2j-1
                add(here[2 * j - 2], there[2 * j - 1])
                add(there[2 * j - 2], here[2 * j - 1])

    host = Graph(layout["n"], sorted(edges))
    budget = q * k * t - q * k + k
    return host, budget


# ---------------------------------------------------------------------------
# random families

def gen_random_split(n: int, seed: int) -> Graph:
    """Random split graph: a clique, an independent set, random crossings."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    rng = random.Random(f"split:{n}:{seed}")
    a = rng.randint(0, n)
    p = rng.choice([0.2, 0.4, 0.7])
    edges = list(combinations(range(a), 2))
    for u in range(a):
        for v in range(a, n):
            if rng.random() < p:
                edges.append((u, v))
    return Graph(n, edges)


def gen_random_bipartite(n: int, seed: int) -> Graph:
    """Random bipartite graph with a random side assignment."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    rng = random.Random(f"bipartite:{n}:{seed}")
    left = [v for v in range(n) if rng.random() < 0.5]
    right = [v for v in range(n) if v not in left]
    p = rng.choice([0.2, 0.4, 0.7])
    edges = [(u, v) for u in left for v in right if rng.random() < p]
    return Graph(n, edges)


def _random_clique_union(rng, n: int) -> Graph:
    edges = []
    start = 0
    while start < n:
        size = min(rng.randint(1, 4), n - start)
        edges.extend(combinations(range(start, start + size), 2))
        start += size
    return Graph(n, edges)


def _random_forest(rng, n: int) -> Graph:
    edges = []
    for v in range(1, n):
        if rng.random() < 0.85:
            edges.append((rng.randrange(v), v))
    return Graph(n, edges)


_MAX_ATTEMPTS = 400


def gen_random_weakly_closed(n: int, target_gamma: int, seed: int) -> Graph:
    """Random graph whose measured weak closure is at most target_gamma.

    Proposals alternate between binomial random graphs at several edge
    densities and structured families that land low (clique unions,
    forests, split graphs); each proposal's weak closure is measured and
    the first one under the target is returned.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if target_gamma < 1:
        raise ValueError("weak closure target must be at least 1")
    rng = random.Random(f"weakly-closed:{n}:{target_gamma}:{seed}")
    densities = [0.15, 0.3, 0.5, 0.7]
    for attempt in range(_MAX_ATTEMPTS):
        kind = attempt % 4
        if kind == 0:
            p = densities[(attempt // 4) % len(densities)]
            edges = [(u, v) for u, v in combinations(range(n), 2)
                     if rng.random() < p]
            g = Graph(n, edges)
        elif kind == 1:
            g = _random_clique_union(rng, n)
        elif kind == 2:
            g = _random_forest(rng, n)
        else:
            g = gen_random_split(n, rng.randrange(2 ** 30))
        if closure.weak_closure_ordering(g).weak_closure <= target_gamma:
            return g
    raise ValueError(
        f"no graph with weak closure <= {target_gamma} on {n} vertices "
        f"after {_MAX_ATTEMPTS} proposals")
