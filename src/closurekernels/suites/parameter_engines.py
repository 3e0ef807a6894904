"""Suite 1: parameter engines.

The greedy weak closure against the subset-DP optimum over all peeling
orders, the closure and degeneracy dominations, and the prefix/suffix
intersection invariant of the emitted ordering. The references here
recompute from scratch and share nothing with `closure`'s count table, so
they stay independent of the engines they check.
"""

from __future__ import annotations

import random
from functools import lru_cache

from .. import _lazy, closure
from ..graph import Graph, induced_subgraph
from ..verify import SuiteResult, _draw_graph

instance_io = _lazy("instance_io")


# ---------------------------------------------------------------------------
# references


def vertex_closure(g: Graph, v: int) -> int:
    """max over w outside N[v] of |N(v) ∩ N(w)|; 0 when no such w."""
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range")
    nv = g.adj(v)
    best = 0
    for w in g.vertices():
        if w == v or w in nv:
            continue
        common = len(nv & g.adj(w))
        if common > best:
            best = common
    return best


def _suffix_closures(g: Graph, order: tuple[int, ...]) -> tuple[int, ...]:
    # recompute each step's closure in the suffix graph, independent of how
    # the order was produced
    steps = []
    alive = list(order)
    for i in range(len(order)):
        sub, idmap = induced_subgraph(g, alive[i:])
        pos = {old: new for new, old in enumerate(idmap)}
        steps.append(vertex_closure(sub, pos[order[i]]))
    return tuple(steps)


def verify_closure_ordering(g: Graph, ordering: closure.ClosureOrdering) -> bool:
    """Recompute the certificate from scratch and compare."""
    if sorted(ordering.order) != list(g.vertices()):
        return False
    steps = _suffix_closures(g, ordering.order)
    if steps != ordering.step_closure:
        return False
    return ordering.weak_closure == 1 + max(steps, default=0)


def exhaustive_weak_closure(g: Graph) -> int:
    """Minimum over all n! peeling orders of (1 + max step closure).

    Subset DP over bitmasks, equivalent to enumerating every order:
    best(S) = min over v in S of max(cl_{G[S]}(v), best(S - v)).
    Intended as an independent oracle for small n (<= ~16).
    """
    n = g.n
    if n == 0:
        return 1
    masks = g.adjacency_masks()

    @lru_cache(maxsize=None)
    def best(s: int) -> int:
        if s == 0:
            return 0
        res = None
        t = s
        while t:
            vbit = t & (-t)
            t ^= vbit
            v = vbit.bit_length() - 1
            nv = masks[v] & s
            cl = 0
            rest = s & ~nv & ~vbit
            while rest:
                wbit = rest & (-rest)
                rest ^= wbit
                w = wbit.bit_length() - 1
                c = (nv & masks[w] & s).bit_count()
                if c > cl:
                    cl = c
            sub = best(s ^ vbit)
            val = cl if cl > sub else sub
            if res is None or val < res:
                res = val
        return res  # type: ignore[return-value]

    out = 1 + best((1 << n) - 1)
    best.cache_clear()
    return out


# ---------------------------------------------------------------------------
# the suite


def suite_parameter_engines(trials: int = 5000, seed: int = 0) -> SuiteResult:
    """Greedy weak closure against the subset-DP optimum, the closure and
    degeneracy dominations, and the prefix/suffix intersection invariant of
    the emitted ordering on every nonadjacent pair."""
    rec = SuiteResult("parameter-engines")
    rng = random.Random(f"verify:params:{seed}")
    for _ in range(trials):
        if rec.saturated:
            break
        g = _draw_graph(rng, 0, 8, (0.15, 0.3, 0.5, 0.7, 0.9))
        ordering = closure.weak_closure_ordering(g)
        wc = ordering.weak_closure
        problems: list[str] = []
        if not verify_closure_ordering(g, ordering):
            problems.append("emitted certificate does not recompute")
        best = exhaustive_weak_closure(g)
        if wc != best:
            problems.append(f"greedy weak closure {wc} != optimum {best}")
        if closure.closure_number(g) < wc:
            problems.append("closure number below weak closure")
        if closure.degeneracy(g)[0] + 1 < wc:
            problems.append("degeneracy + 1 below weak closure")
        pos = {v: i for i, v in enumerate(ordering.order)}
        later = {v: frozenset(w for w in g.adj(v) if pos[w] > pos[v]) for v in g.vertices()}
        for u in g.vertices():
            for v in g.vertices():
                if u == v or v in g.adj(u):
                    continue
                qq = len(later[u] & later[v])
                qn = len(later[u] & g.adj(v))
                if not (qq <= qn <= wc - 1):
                    problems.append(
                        f"intersection invariant broken at ({u}, {v}): "
                        f"{qq} <= {qn} <= {wc - 1} fails")
        if problems:
            rec.fail("; ".join(problems), instance_io.from_problem(g))
        else:
            rec.ok()
    return rec
