"""The problem-instance base, the independent set instance (a problem with
no kernel and so no module of its own), and the reduction driver shared by
every kernel.

A rule maps an instance to `(instance, entry)`: the entry is None when the
rule does not fire, and otherwise the trace record of its one application.
A rule that settles the instance outright returns a `Decided` in place of
the instance. A rule that deletes vertices returns `inst.without(...)`.
"""
from __future__ import annotations

from typing import Callable, Sequence

from .graph import Graph, Record, delete_vertices


class Instance(Record):
    """A problem instance: a `graph`, a nonnegative budget `k`, and the
    subclass's other fields. `vertex_fields` names the fields that follow
    deleted vertices: a tuple field is indexed by vertex, a set field holds
    vertices."""

    __slots__ = ()
    vertex_fields: tuple[str, ...] = ()

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("budget must be nonnegative")

    def without(self, removed, **changes):
        """The instance with the `removed` vertices deleted and the rest
        renumbered densely in order. `changes` replace fields and use the
        current numbering; the result is validated again."""
        graph, kept = delete_vertices(self.graph, removed)
        for name in self.vertex_fields:
            value = changes.get(name, getattr(self, name))
            if isinstance(value, (set, frozenset)):
                changes[name] = frozenset(new for new, old in enumerate(kept) if old in value)
            else:
                changes[name] = tuple(value[v] for v in kept)
        return self.replace(graph=graph, **changes)

    def fields(self) -> dict:
        """The fields other than `graph` and `k`, vertex sets as sorted
        tuples."""
        return {name: tuple(sorted(value)) if isinstance(value, (set, frozenset)) else value
                for name, value in zip(self.__slots__, self._values()) if name not in ("graph", "k")}


class IsInstance(Instance):
    """Independent set: `parts` gives each vertex's part index. One part asks
    for k pairwise nonadjacent vertices; several ask for one vertex per part."""

    file_kind = "is"
    vertex_fields = ("parts",)
    __slots__ = ("graph", "parts", "k")
    graph: Graph
    parts: tuple[int, ...]
    k: int

    def __post_init__(self):
        if len(self.parts) != self.graph.n:
            raise ValueError("part vector length must equal vertex count")
        super().__post_init__()

    def groups(self) -> list[tuple[int, ...]]:
        """The vertices of each part, parts in index order."""
        groups: dict[int, list[int]] = {}
        for v, i in enumerate(self.parts):
            groups.setdefault(i, []).append(v)
        return [tuple(groups[i]) for i in sorted(groups)]


class Decided(Record):
    """A rule decided the instance outright."""

    __slots__ = ("answer", "reason")
    answer: bool
    reason: str


def exhaust(inst, rules: Sequence[Callable]) -> tuple[object, list[dict]]:
    """Apply rules in priority order until none fires or one decides.

    After any fire the search restarts from the first rule. Returns the
    reduced instance (or the `Decided`) and the trace entries in order.
    """
    trace: list[dict] = []
    while True:
        for rule in rules:
            out, entry = rule(inst)
            if entry is not None:
                break
        else:
            return inst, trace
        trace.append(entry)
        if isinstance(out, Decided):
            return out, trace
        inst = out
