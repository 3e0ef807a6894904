"""Suite 6: no graph holds the biclique its weak closure and clique number rule out."""

from __future__ import annotations

import random

from .. import _lazy, domset, generators
from ..verify import SuiteResult, _random_graph

instance_io = _lazy("instance_io")


def suite_biclique_certificate(trials: int = 500, seed: int = 0) -> SuiteResult:
    """No graph contains a complete bipartite subgraph with both sides of
    size weak closure + clique number + 1."""
    rec = SuiteResult("biclique-certificate")
    rng = random.Random(f"verify:biclique:{seed}")
    for t in range(trials):
        if rec.saturated:
            break
        n = rng.randint(2, 18)
        style = t % 3
        if style == 0:
            g = generators.gen_random_bipartite(n, rng.randrange(2 ** 30))
        elif style == 1:
            g = _random_graph(rng, n, rng.choice((0.15, 0.25)))
        else:
            g = generators._random_clique_union(rng, n)
        report = domset.biclique_freeness_report(g)
        if report["consistent"]:
            rec.ok()
        else:
            rec.fail(f"biclique found: {report}", instance_io.from_problem(g))
    return rec
