"""Induced matching: three reductions and a bipartite extraction step.

The reductions, in the order the kernel loop tries them:

- an instance whose half-integral vertex cover LP optimum is huge is an
  outright Yes;
- a vertex whose posterior neighborhood (under a weak closure ordering)
  contains a large plain matching is deletable;
- one of two false twins is deletable.

The extraction step splits vertices by posterior-neighborhood size,
producing a bipartite-flavored subinstance used by the size analysis.
"""
from __future__ import annotations

from dataclasses import dataclass

from .capvc import twin_classes
from .closure import pq_split, weak_closure_ordering
from .combinatorics import maximum_matching, vclp_half_integral
from .graph import Graph, delete_vertices, induced_subgraph
from .reduction import Decided, exhaust


@dataclass(frozen=True)
class ImInstance:
    graph: Graph
    k: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("budget must be nonnegative")


def posterior_matching_threshold(weak_closure: int, k: int) -> int:
    """A matching this large inside one posterior neighborhood makes the
    vertex deletable."""
    return 2 * weak_closure * k


def lp_yes_threshold(weak_closure: int, k: int) -> int:
    """LP optimum (doubled, so integral) at or above this decides Yes."""
    f = 4 * weak_closure * k * k + 3 * k
    g1 = _degree_shrink(weak_closure, f)
    g2 = _degree_shrink(weak_closure, g1)
    return 2 * g2


def _degree_shrink(weak_closure: int, budget: int) -> int:
    return 4 * weak_closure * budget * budget + budget * budget


def dense_posterior_rule(inst: ImInstance) -> tuple[ImInstance, dict | None]:
    """Delete the first vertex (in ordering position) whose posterior
    neighborhood induces a subgraph with a large maximum matching."""
    g, k = inst.graph, inst.k
    ordering = weak_closure_ordering(g)
    wc = ordering.weak_closure
    threshold = posterior_matching_threshold(wc, k)
    for v in ordering.order:
        post = pq_split(g, ordering, v).posterior
        if len(post) < 2 * threshold:
            continue
        sub, _ = induced_subgraph(g, post)
        if len(maximum_matching(sub)) >= threshold:
            new_graph, _ = delete_vertices(g, [v])
            entry = {
                "rule": "dense-posterior",
                "removed": v,
                "matching_size": threshold,
                "weak_closure": wc,
            }
            return ImInstance(new_graph, k), entry
    return inst, None


def lp_threshold_rule(inst: ImInstance) -> tuple[ImInstance | Decided, dict | None]:
    """Decide Yes when the vertex cover LP optimum is at least twice the
    double-shrunk budget bound."""
    g, k = inst.graph, inst.k
    if k == 0:
        return Decided(True, "empty matching suffices"), {"rule": "lp-threshold", "decided": "yes"}
    wc = weak_closure_ordering(g).weak_closure
    sol = vclp_half_integral(g)
    doubled = sum(sol.value2)
    if doubled >= lp_yes_threshold(wc, k):
        entry = {
            "rule": "lp-threshold",
            "decided": "yes",
            "lp_doubled": doubled,
            "threshold": lp_yes_threshold(wc, k),
        }
        return Decided(True, "cover LP optimum exceeds threshold"), entry
    return inst, None


def im_twin_rule(inst: ImInstance) -> tuple[ImInstance, dict | None]:
    """Delete the largest-id member of the first false-twin pair."""
    g = inst.graph
    for cls in twin_classes(g):
        if len(cls) < 2:
            continue
        victim = cls[-1]
        new_graph, _ = delete_vertices(g, [victim])
        entry = {"rule": "twin", "removed": victim, "kept": cls[0]}
        return ImInstance(new_graph, inst.k), entry
    return inst, None


def kernelize_im(inst: ImInstance) -> tuple[ImInstance | Decided, list[dict]]:
    """All three rules to exhaustion, priority order: the LP decision, dense
    posterior neighborhoods, twins."""
    return exhaust(inst, (lp_threshold_rule, dense_posterior_rule, im_twin_rule))


def decided_instance(decision: Decided) -> ImInstance:
    """The canonical trivially-yes or trivially-no instance."""
    if decision.answer:
        return ImInstance(Graph(0), 0)
    return ImInstance(Graph(1), 1)


@dataclass(frozen=True)
class BipartiteSplit:
    """Vertices split by posterior-neighborhood size against gamma*k."""

    big: tuple[int, ...]
    small: tuple[int, ...]
    weak_closure: int


def posterior_size_split(inst: ImInstance) -> BipartiteSplit:
    g, k = inst.graph, inst.k
    ordering = weak_closure_ordering(g)
    wc = ordering.weak_closure
    big = []
    small = []
    for v in g.vertices():
        if len(pq_split(g, ordering, v).posterior) >= wc * k:
            big.append(v)
        else:
            small.append(v)
    return BipartiteSplit(tuple(big), tuple(small), wc)


def greedy_low_degree_matching(g: Graph) -> frozenset[tuple[int, int]]:
    """Induced matching picked greedily by minimum endpoint degree sum in
    the surviving subgraph; picked endpoints and their neighbors drop out.

    The output is always an induced matching. In a graph of degeneracy d
    its size stays within a 4d+1 factor of the maximum plain matching.
    """
    alive = {tuple(sorted(e)) for e in g.edges()}
    chosen: set[tuple[int, int]] = set()
    while alive:
        deg: dict[int, int] = {}
        for a, b in alive:
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
        u, v = min(alive, key=lambda e: (deg[e[0]] + deg[e[1]], e))
        chosen.add((u, v))
        blocked = g.closed_adj(u) | g.closed_adj(v)
        alive = {e for e in alive if not (set(e) & blocked)}
    return frozenset(chosen)
