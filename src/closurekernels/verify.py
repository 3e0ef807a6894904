"""Cross-checking suites over the whole toolkit: the shared core.

Every suite draws seeded random instances, recomputes the claimed property
with an independent method (usually a brute-force oracle), and reports a
SuiteResult. Counterexamples are attached as instance files so the CLI can
dump them for offline inspection.

Each suite is a module of its own, `suites.<name>` (dashes as
underscores), holding `suite_<name>(trials=<its default>, seed=0) ->
SuiteResult` with its private helpers and the references only it reads.
This module holds what they share: `SuiteResult`, the seeded samplers,
`_answer`, the registry `SUITES` and `run_suite`. A registry entry imports
its suite's module on its first call, so `verify --suite X` compiles suite
X and the modules X calls, and no other suite.

`run_suite` calls a suite with the seed, and with the trial count when one
is given (`verify --trials`). `trials` counts random draws: per rule in
rule-safety, and `trials // 20` graphs per size (at least one) in
ramsey-guarantee. composition-patterns (16 fixed checks) and determinism
(7) accept it and ignore it. The acceptance tests call the same suite
functions at full scale.

Suites never raise on a property violation. They raise only on programming
errors (bad arguments, broken invariants inside the suite itself).
"""

from __future__ import annotations

import importlib
import random
from itertools import combinations
from typing import TYPE_CHECKING, Callable

from . import _lazy
from .graph import Graph

if TYPE_CHECKING:
    from .instance_io import InstanceFile

oracles = _lazy("oracles")
reduction = _lazy("reduction")


_MAX_FAILURES = 5


class SuiteResult:
    """One suite's outcome, filled in as it runs: how many checks ran, and
    what broke, up to a cap on failures so broken suites stay fast."""

    def __init__(self, name: str):
        self.name = name
        self.checked = 0
        self.failures: list[str] = []
        self.artifacts: list[InstanceFile] = []

    def ok(self) -> None:
        self.checked += 1

    def fail(self, message: str, artifact: InstanceFile | None = None) -> None:
        self.checked += 1
        if len(self.failures) < _MAX_FAILURES:
            self.failures.append(message)
            if artifact is not None:
                self.artifacts.append(artifact)

    @property
    def saturated(self) -> bool:
        return len(self.failures) >= _MAX_FAILURES

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        word = "ok" if self.passed else "FAIL"
        line = f"{self.name}: {word} ({self.checked} checks"
        if self.failures:
            line += f", {len(self.failures)} failures"
        return line + ")"


# ---------------------------------------------------------------------------
# samplers and the oracle answer that several suites share


def _random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def _draw_graph(rng: random.Random, lo: int, hi: int, densities: tuple[float, ...]) -> Graph:
    """G(n, p) for n drawn from [lo, hi] and p from densities: `randint`,
    then `choice`, then one `random()` per pair."""
    n = rng.randint(lo, hi)
    return _random_graph(rng, n, rng.choice(densities))


def _random_red(rng: random.Random, n: int) -> frozenset[int]:
    return frozenset(rng.sample(range(n), rng.randint(0, min(2, n))))


def _random_split(rng: random.Random, max_n: int) -> Graph:
    n = rng.randint(1, max_n)
    a = rng.randint(0, n)
    edges = list(combinations(range(a), 2))
    p = rng.random()
    for u in range(a):
        for v in range(a, n):
            if rng.random() < p:
                edges.append((u, v))
    return Graph(n, edges)


def _answer(inst) -> bool:
    """A decision's answer, else the oracle's under a 12-vertex cap."""
    if isinstance(inst, reduction.Decided):
        return inst.answer
    return oracles.solve_exact(inst, max_n=12).answer


# ---------------------------------------------------------------------------
# registry


def _suite(name: str) -> Callable[..., SuiteResult]:
    """Suite `name`'s registry entry: imports `suites.<name>` on its first
    call and runs `suite_<name>` there, at that function's own trial count
    when trials is None."""
    module = name.replace("-", "_")

    def run(trials: int | None = None, seed: int = 0) -> SuiteResult:
        fn = getattr(importlib.import_module(f"{__package__}.suites.{module}"), f"suite_{module}")
        return fn(seed=seed) if trials is None else fn(trials=trials, seed=seed)

    return run


SUITES: dict[str, Callable[..., SuiteResult]] = {name: _suite(name) for name in (
    "parameter-engines",
    "rule-safety",
    "setcover-gadget",
    "composition-patterns",
    "kernel-size-bounds",
    "biclique-certificate",
    "ramsey-guarantee",
    "vclp-exactness",
    "determinism",
)}


def run_suite(name: str, trials: int | None = None, seed: int = 0) -> SuiteResult:
    """Run one suite by registry name, at its own trial count unless given."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](trials=trials, seed=seed)
