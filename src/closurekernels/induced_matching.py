"""Induced matching: three reductions.

The reductions, in the order the kernel loop tries them:

- an instance whose half-integral vertex cover LP optimum is huge is an
  outright Yes;
- a vertex whose posterior neighborhood (under a weak closure ordering)
  contains a large plain matching is deletable;
- one of two false twins is deletable.
"""
from __future__ import annotations

from . import _lazy
from .graph import Graph, induced_subgraph, twin_classes
from .reduction import Decided, Instance, exhaust

# only the rules read them: `solve im` compiles neither
closure = _lazy("closure")
combinatorics = _lazy("combinatorics")


class ImInstance(Instance):
    file_kind = "im"
    __slots__ = ("graph", "k")
    graph: Graph
    k: int


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
    ordering = closure.weak_closure_ordering(g)
    wc = ordering.weak_closure
    threshold = posterior_matching_threshold(wc, k)
    pos = ordering.position()
    for v in ordering.order:
        post = [w for w in g.adj(v) if pos[w] > pos[v]]
        if len(post) < 2 * threshold:
            continue
        sub, _ = induced_subgraph(g, post)
        if len(combinatorics.maximum_matching(sub)) >= threshold:
            entry = {
                "rule": "dense-posterior",
                "removed": v,
                "matching_size": threshold,
                "weak_closure": wc,
            }
            return inst.without([v]), entry
    return inst, None


def lp_threshold_rule(inst: ImInstance) -> tuple[ImInstance | Decided, dict | None]:
    """Decide Yes when the vertex cover LP optimum is at least twice the
    double-shrunk budget bound.

    The doubled optimum is at most 2n and the threshold grows with the weak
    closure, which is at least 1, so for k >= 1 the rule returns before any
    LP work unless 2n reaches lp_yes_threshold(1, k) (600,250 at k = 1).
    Rule-safety's small graphs therefore exercise only the k = 0 branch."""
    g, k = inst.graph, inst.k
    if k == 0:
        return Decided(True, "empty matching suffices"), {"rule": "lp-threshold", "decided": "yes"}
    if 2 * g.n < lp_yes_threshold(1, k):
        return inst, None
    wc = closure.weak_closure_ordering(g).weak_closure
    sol = combinatorics.vclp_half_integral(g)
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
        return inst.without([victim]), {"rule": "twin", "removed": victim, "kept": cls[0]}
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
