"""Suite 4: the independent set composition on all 16 yes/no patterns."""

from __future__ import annotations

from .. import _lazy, generators, oracles
from ..graph import Graph
from ..reduction import IsInstance
from ..verify import SuiteResult

instance_io = _lazy("instance_io")


def suite_composition_patterns(trials: int = 16, seed: int = 0) -> SuiteResult:
    """All 16 yes/no input patterns for the q=2, t=2, k=1 composition, plus
    the selector-path layout: the host has an independent set of the target
    size exactly when some input is a yes. trials and seed are ignored."""
    rec = SuiteResult("composition-patterns")
    yes = (Graph(1), [(0,)])
    no = (Graph(0), [()])
    q, t, k = 2, 2, 1
    for bits in range(16):
        pattern = [(bits >> i) & 1 for i in range(4)]
        instances = [yes if b else no for b in pattern]
        host, budget = generators.gen_is_composition(instances, t, q, k)
        want = any(pattern)
        problem = IsInstance(host, (0,) * host.n, budget)
        got = oracles.solve_exact(problem, max_n=24).answer
        if got != want:
            rec.fail(f"pattern {pattern}: host answer {got}, expected {want}",
                     instance_io.from_problem(problem))
            continue
        layout = generators.composition_layout(instances, t, q, k)
        problems = []
        if budget != q * k * t - q * k + k:
            problems.append("budget formula mismatch")
        paths = layout["path_ids"]
        if set(paths) != {(0, r) for r in range(q)} or \
                any(len(p) != 2 * t - 2 for p in paths.values()):
            problems.append("selector path sizes wrong")
        keys = set(layout["groups"])
        expect_keys = {(0, r, j) for r in range(q) for j in range(1, t + 1)}
        if keys != expect_keys:
            problems.append("group label scheme wrong")
        for (layer, r, j), group in layout["groups"].items():
            path = paths[(layer, r)]
            if j == 1 and group != (path[0],):
                problems.append(f"group ({layer},{r},1) is not the path head")
            if j == t and group != (path[-1],):
                problems.append(f"group ({layer},{r},{t}) is not the path tail")
        if problems:
            rec.fail(f"pattern {pattern}: " + "; ".join(problems))
        else:
            rec.ok()
    return rec
