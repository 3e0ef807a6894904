"""Reference job: a fixed piece of pure-Python graph work that shares no code
with closurekernels.

    python3 perfbench/reference.py

run.py times it as a subprocess before the corpus builds, before every pass
and after the last one, and scales its time metrics by REFERENCE_S over the
mean of those times. The job does the same kind of work as the package
(interpreter start-up, set and bitset operations on adjacency rows, a greedy
peel like the weak-closure engine) and no change to the package can move
it, so the scaled times follow the program while the machine's speed, which
on a shared host drifts by up to 1.6x over minutes, cancels out.
"""
from __future__ import annotations

import random
from itertools import combinations

import check

N = 100
M = 700
GRAPHS = 3
PEEL_STEPS = 12


def main() -> int:
    rng = random.Random("perfbench:reference")
    pairs = list(combinations(range(N), 2))
    total = 0
    for _ in range(GRAPHS):
        g = check.Graph(N, rng.sample(pairs, M))
        total += g.closure + g.degeneracy + g.wedges()
        alive = set(range(N))
        for _ in range(PEEL_STEPS):
            best = None
            for v in sorted(alive):
                av = g.adj[v] & alive
                c = max((len(av & g.adj[w]) for w in alive if w != v and w not in av),
                        default=0)
                if best is None or c < best[0]:
                    best = (c, v)
            alive.discard(best[1])
            total += best[0]
    print(total)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
