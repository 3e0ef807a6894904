"""The reduction driver shared by every kernel.

A rule maps an instance to `(instance, entry)`: the entry is None when the
rule does not fire, and otherwise the trace record of its one application.
A rule that settles the instance outright returns a `Decided` in place of
the instance.
"""
from __future__ import annotations

from typing import Callable, Sequence

from .graph import Record


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
