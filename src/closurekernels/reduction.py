"""The problem-instance base and the reduction driver shared by every kernel.

A rule maps an instance to `(instance, entry)`: the entry is None when the
rule does not fire, and otherwise the trace record of its one application.
A rule that settles the instance outright returns a `Decided` in place of
the instance. A rule that deletes vertices returns `inst.without(...)`.
"""
from __future__ import annotations

from typing import Callable, Sequence

from .graph import Record, delete_vertices


class Instance(Record):
    """A problem instance: a `graph`, a nonnegative budget `k`, and the
    subclass's other fields."""

    __slots__ = ()

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("budget must be nonnegative")

    def without(self, removed, **changes):
        """The instance with the `removed` vertices deleted and the rest
        renumbered densely in order. `changes` replace fields and use the
        current numbering; the result is validated again."""
        graph, kept = delete_vertices(self.graph, removed)
        return self.replace(graph=graph, **self._renumber(changes, kept))

    def _renumber(self, changes: dict, kept: tuple[int, ...]) -> dict:
        """`changes` with every per-vertex field carried to the new numbering,
        in which vertex i is the old vertex kept[i]. Problem classes whose
        rules delete vertices override this for their per-vertex fields."""
        return changes


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
