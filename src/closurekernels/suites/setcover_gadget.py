"""Suite 3: the capacitated vertex cover gadget answers like exact set cover."""

from __future__ import annotations

import random
from itertools import combinations

from .. import _lazy, closure, generators, oracles
from ..verify import SuiteResult

instance_io = _lazy("instance_io")


def _random_cover_family(rng: random.Random, universe: int, lam: int, count: int):
    pool = list(combinations(range(universe), lam))
    rng.shuffle(pool)
    return [frozenset(s) for s in pool[:count]]


def suite_setcover_gadget(trials: int = 200, seed: int = 0) -> SuiteResult:
    """Generated capacitated instances answer exactly like the disjoint
    set-cover oracle, stay 7-closed, and hit the edge-count formula."""
    rec = SuiteResult("setcover-gadget")
    rng = random.Random(f"verify:gadget:{seed}")
    lam = 3
    for t in range(trials):
        if rec.saturated:
            break
        k = 2 if t % 3 == 2 else 1
        universe = lam * k
        nsets = rng.randint(0, 6 if k == 1 else 8)
        family = _random_cover_family(rng, universe, lam, nsets)
        inst = generators.gen_capvc_lowerbound(universe, family, lam, k)
        want = oracles.solve_exact_set_cover(universe, family, lam, k).answer
        got = oracles.solve_exact(inst, max_n=32).answer
        problems = []
        if want != got:
            problems.append(f"gadget answer {got} != set cover answer {want}")
        expected_m = 2 * lam * k + 2 * lam * len(family) + lam * k * (2 * lam * k - 1)
        if inst.graph.m != expected_m:
            problems.append(f"edge count {inst.graph.m} != formula {expected_m}")
        cl = closure.closure_number(inst.graph)
        if cl > 2 * lam + 1:
            problems.append(f"closure number {cl} above {2 * lam + 1}")
        if problems:
            rec.fail(f"k={k}, family={sorted(map(sorted, family))}: " + "; ".join(problems),
                     instance_io.from_problem(inst))
        else:
            rec.ok()
    return rec
