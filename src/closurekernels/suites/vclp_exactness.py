"""Suite 8: the combinatorial vertex cover LP against exhaustive half-integral search."""

from __future__ import annotations

import random

from .. import _lazy, combinatorics, generators
from ..graph import Graph
from ..verify import SuiteResult, _draw_graph

instance_io = _lazy("instance_io")


def _brute_vclp_total2(g: Graph) -> int:
    """Minimum doubled objective over all feasible {0, 1/2, 1} assignments,
    by branch and bound over vertices in id order."""
    best = 2 * g.n
    adj = [sorted(g.adj(v)) for v in range(g.n)]
    value = [0] * g.n

    def rec_assign(v: int, total: int) -> None:
        nonlocal best
        if total >= best:
            return
        if v == g.n:
            best = total
            return
        for x in (0, 1, 2):
            ok = True
            for u in adj[v]:
                if u < v and value[u] + x < 2:
                    ok = False
                    break
            if ok:
                value[v] = x
                rec_assign(v + 1, total + x)
        value[v] = 0

    rec_assign(0, 0)
    return best


def suite_vclp_exactness(trials: int = 300, seed: int = 0) -> SuiteResult:
    """Combinatorial LP solver against exhaustive half-integral search."""
    rec = SuiteResult("vclp-exactness")
    rng = random.Random(f"verify:vclp:{seed}")
    gen = generators
    fixed = [Graph(0), Graph(1), gen.path_graph(4), gen.cycle_graph(5), gen.cycle_graph(6),
             gen.complete_graph(4), gen.complete_bipartite(3, 3), gen.complete_bipartite(2, 5),
             gen.path_graph(10)]
    pool: list[Graph] = list(fixed)
    for _ in range(trials):
        pool.append(_draw_graph(rng, 0, 10, (0.2, 0.4, 0.6, 0.8)))
    for g in pool:
        if rec.saturated:
            break
        sol = combinatorics.vclp_half_integral(g)
        problems = []
        if not combinatorics.vclp_is_feasible(g, sol.value2):
            problems.append("returned assignment infeasible")
        brute2 = _brute_vclp_total2(g)
        if sum(sol.value2) != brute2:
            problems.append(f"objective {sum(sol.value2)}/2 != optimum {brute2}/2")
        recomposed = len(sol.halves) + 2 * len(sol.ones)
        if recomposed != sum(sol.value2):
            problems.append("objective does not match halves/ones decomposition")
        if problems:
            rec.fail("; ".join(problems), instance_io.from_problem(g))
        else:
            rec.ok()
    return rec
