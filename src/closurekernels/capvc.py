"""Capacitated vertex cover: the twin-class reduction and its kernel loop.

A false-twin class is a set of vertices sharing one open neighborhood (such
vertices are pairwise nonadjacent automatically). When a class has at least
k+2 members and its shared neighborhood has at most k+2 vertices, one
minimum-capacity member is removed and every neighbor loses one unit of
capacity. Capacities are signed: they may go negative, and a
negative-capacity vertex can never take an edge.
"""
from __future__ import annotations

from . import _lazy
from .graph import Graph, twin_classes
from .reduction import Instance, exhaust

# only the size report reads it: `solve capvc` compiles no closure code
closure = _lazy("closure")


class CapVcInstance(Instance):
    file_kind = "capvc"
    vertex_fields = ("cap",)
    __slots__ = ("graph", "cap", "k")
    graph: Graph
    cap: tuple[int, ...]
    k: int

    def __post_init__(self):
        if len(self.cap) != self.graph.n:
            raise ValueError("capacity vector length must equal vertex count")
        super().__post_init__()


def twin_crown_rule(inst: CapVcInstance) -> tuple[CapVcInstance, dict | None]:
    """One application of the twin-class reduction.

    Fires on the first (by smallest member) class with >= k+2 members whose
    shared neighborhood has at most k+2 vertices. Removes the member with
    minimum capacity (ties to the smallest id) and decrements every
    neighborhood capacity by one, without clamping at zero.
    Returns (new instance, trace entry) or (inst, None) when nothing fires.
    """
    g, cap, k = inst.graph, inst.cap, inst.k
    for cls in twin_classes(g):
        if len(cls) < k + 2:
            continue
        shared = g.adj(cls[0])
        if len(shared) > k + 2:
            continue
        victim = min(cls, key=lambda v: (cap[v], v))
        new_cap = tuple(c - 1 if v in shared else c for v, c in enumerate(cap))
        entry = {
            "rule": "twin-class",
            "removed": victim,
            "class": list(cls),
            "neighborhood": sorted(shared),
            "decremented": sorted(shared),
        }
        return inst.without([victim], cap=new_cap), entry
    return inst, None


def kernelize_capvc(inst: CapVcInstance) -> tuple[CapVcInstance, list[dict]]:
    """Apply the twin-class rule to exhaustion. Trace entries record vertex
    ids in the numbering current at the time of each application."""
    return exhaust(inst, (twin_crown_rule,))


def size_bound_report(inst: CapVcInstance) -> dict:
    """Size check of a reduced instance: k plus the class-count bound with
    classes of at most k + 2 members."""
    return closure.cover_class_report(inst.graph, inst.k, inst.k + 2)

