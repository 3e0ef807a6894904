"""Capacitated vertex cover: the twin-class reduction and its kernel loop.

A false-twin class is a set of vertices sharing one open neighborhood (such
vertices are pairwise nonadjacent automatically). When a class has at least
k+2 members and its shared neighborhood has at most k+2 vertices, one
minimum-capacity member is removed and every neighbor loses one unit of
capacity. Capacities are signed: they may go negative, and a
negative-capacity vertex can never take an edge.
"""
from __future__ import annotations

from .closure import cover_class_report
from .graph import Graph, Record, delete_vertices
from .reduction import exhaust


class CapVcInstance(Record):
    file_kind = "capvc"
    __slots__ = ("graph", "cap", "k")
    graph: Graph
    cap: tuple[int, ...]
    k: int

    def __post_init__(self):
        if len(self.cap) != self.graph.n:
            raise ValueError("capacity vector length must equal vertex count")
        if self.k < 0:
            raise ValueError("budget must be nonnegative")


def twin_classes(g: Graph) -> list[tuple[int, ...]]:
    """Vertices grouped by open neighborhood; classes sorted by first member."""
    groups: dict[frozenset[int], list[int]] = {}
    for v in g.vertices():
        groups.setdefault(g.adj(v), []).append(v)
    return sorted((tuple(sorted(vs)) for vs in groups.values()), key=lambda t: t[0])


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
        new_graph, idmap = delete_vertices(g, [victim])
        new_cap = []
        for new_id, old_id in enumerate(idmap):
            c = cap[old_id]
            if old_id in shared:
                c -= 1
            new_cap.append(c)
        entry = {
            "rule": "twin-class",
            "removed": victim,
            "class": list(cls),
            "neighborhood": sorted(shared),
            "decremented": sorted(shared),
        }
        return CapVcInstance(new_graph, tuple(new_cap), k), entry
    return inst, None


def kernelize_capvc(inst: CapVcInstance) -> tuple[CapVcInstance, list[dict]]:
    """Apply the twin-class rule to exhaustion. Trace entries record vertex
    ids in the numbering current at the time of each application."""
    return exhaust(inst, (twin_crown_rule,))


def size_bound_report(inst: CapVcInstance) -> dict:
    """Size check of a reduced instance: k plus the class-count bound with
    classes of at most k + 2 members."""
    return cover_class_report(inst.graph, inst.k, inst.k + 2)


def replay_capvc_trace(inst: CapVcInstance, trace: list[dict]) -> CapVcInstance:
    """Re-apply a recorded trace; used to check traces are self-contained."""
    for entry in trace:
        g, cap = inst.graph, list(inst.cap)
        victim = entry["removed"]
        for v in entry["decremented"]:
            cap[v] -= 1
        new_graph, idmap = delete_vertices(g, [victim])
        inst = CapVcInstance(new_graph, tuple(cap[old] for old in idmap), inst.k)
    return inst
