"""Suite 7: above the guarantee threshold a Ramsey witness comes back and validates."""

from __future__ import annotations

import random

from .. import _lazy, closure, generators, ramsey
from ..graph import Graph
from ..verify import SuiteResult

instance_io = _lazy("instance_io")


def suite_ramsey_guarantee(trials: int = 60, seed: int = 0) -> SuiteResult:
    """Above the guarantee threshold a witness must come back and validate,
    on trials // 20 graphs (at least one) per size and weak closure target."""
    rec = SuiteResult("ramsey-guarantee")
    rng = random.Random(f"verify:ramsey:{seed}")
    graphs: list[Graph] = []
    for target in (1, 2):
        for n in range(1, 21):
            for _ in range(max(1, trials // 20)):
                try:
                    g = generators.gen_random_weakly_closed(n, target, rng.randrange(2 ** 30))
                except ValueError:
                    continue
                graphs.append(g)
    for g in graphs:
        wc = closure.weak_closure_ordering(g).weak_closure
        for a in range(1, 5):
            for b in range(1, 5):
                if g.n < ramsey.r_gamma_bound(a, b, wc):
                    continue
                if rec.saturated:
                    break
                w = ramsey.clique_or_independent_set(g, a, b)
                if w is None:
                    rec.fail(f"no witness on n={g.n}, weak closure {wc}, "
                             f"sizes ({a}, {b})", instance_io.from_problem(g))
                    continue
                size_ok = len(w.vertices) == (a if w.kind == "clique" else b)
                if not (size_ok and ramsey.validate_witness(g, w)):
                    rec.fail(f"invalid witness {w} on n={g.n}, sizes ({a}, {b})",
                             instance_io.from_problem(g))
                else:
                    rec.ok()
    return rec
