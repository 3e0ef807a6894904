import random
from fractions import Fraction
from itertools import combinations

import pytest

from closurekernels.combinatorics import (
    Sunflower,
    find_sunflower,
    is_matching,
    maximum_matching,
    sunflower_guarantee,
    validate_sunflower,
    vclp_half_integral,
    vclp_is_feasible,
)
from closurekernels.graph import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    empty_graph,
    path_graph,
    star_graph,
)


def random_graph(n, p, rng):
    return Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(10, outer + inner + spokes)


def brute_matching_number(g):
    best = 0
    edges = g.edges()
    for r in range(len(edges), 0, -1):
        if r <= best:
            break
        for sub in combinations(edges, r):
            used = set()
            ok = True
            for u, v in sub:
                if u in used or v in used:
                    ok = False
                    break
                used.update((u, v))
            if ok:
                best = max(best, r)
                break
    return best


def test_matching_small_examples():
    assert len(maximum_matching(empty_graph(4))) == 0
    assert len(maximum_matching(path_graph(4))) == 2
    assert len(maximum_matching(cycle_graph(5))) == 2
    assert len(maximum_matching(complete_graph(6))) == 3
    assert len(maximum_matching(star_graph(9))) == 1


def test_matching_petersen():
    # perfect matching despite odd cycles everywhere
    g = petersen()
    m = maximum_matching(g)
    assert len(m) == 5
    assert is_matching(g, m)


def test_matching_needs_blossoms():
    # two triangles joined by a bridge: augmenting paths cross blossoms
    g = Graph(8, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (6, 4), (3, 7)])
    m = maximum_matching(g)
    assert is_matching(g, m)
    assert len(m) == brute_matching_number(g)


def test_matching_vs_bruteforce_random():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(1, 8)
        g = random_graph(n, rng.choice([0.2, 0.4, 0.7]), rng)
        if g.m > 12:
            continue
        m = maximum_matching(g)
        assert is_matching(g, m)
        assert len(m) == brute_matching_number(g)


def test_matching_deterministic():
    g = petersen()
    assert maximum_matching(g) == maximum_matching(g)


def exhaustive_vclp_opt(g):
    # minimize over all doubled assignments in {0, 1, 2}^V; n is tiny
    import itertools
    best = None
    for assign in itertools.product([0, 1, 2], repeat=g.n):
        if all(assign[u] + assign[v] >= 2 for u, v in g.edges()):
            tot = sum(assign)
            if best is None or tot < best:
                best = tot
    return Fraction(best, 2)


def test_vclp_examples():
    # C4: all halves, objective 2
    sol = vclp_half_integral(cycle_graph(4))
    assert Fraction(sum(sol.value2), 2) == 2
    assert vclp_is_feasible(cycle_graph(4), sol.value2)
    # K3: all halves, objective 3/2
    sol3 = vclp_half_integral(complete_graph(3))
    assert Fraction(sum(sol3.value2), 2) == Fraction(3, 2)
    assert sol3.halves == frozenset({0, 1, 2})
    # star: hub 1, leaves 0
    sols = vclp_half_integral(star_graph(4))
    assert Fraction(sum(sols.value2), 2) == 1
    assert sols.ones == frozenset({0})
    assert [v for v, x in enumerate(sols.value2) if x == 0] == [1, 2, 3, 4]
    # no edges: all zeros
    assert vclp_half_integral(empty_graph(3)).value2 == (0, 0, 0)


def test_vclp_structure():
    g = complete_bipartite(2, 3)
    sol = vclp_half_integral(g)
    assert Fraction(sum(sol.value2), 2) == 2
    assert Fraction(sum(sol.value2), 2) == Fraction(len(sol.halves), 2) + len(sol.ones)


def test_vclp_exhaustive_small():
    rng = random.Random(31)
    for _ in range(80):
        n = rng.randint(1, 7)
        g = random_graph(n, rng.choice([0.25, 0.5, 0.8]), rng)
        sol = vclp_half_integral(g)
        assert vclp_is_feasible(g, sol.value2)
        assert Fraction(sum(sol.value2), 2) == exhaustive_vclp_opt(g)
        assert Fraction(sum(sol.value2), 2) == Fraction(len(sol.halves), 2) + len(sol.ones)


def test_sunflower_identical_sets():
    fam = [frozenset({1, 2})] * 4
    sf = find_sunflower(fam, 4)
    assert sf is not None
    assert sf.core == frozenset({1, 2})
    assert len(sf.members) == 4
    assert validate_sunflower(fam, sf)


def test_sunflower_disjoint_and_cored():
    fam = [frozenset({i}) for i in range(5)]
    sf = find_sunflower(fam, 5)
    assert sf is not None and sf.core == frozenset()
    fam2 = [frozenset({0, i}) for i in range(1, 6)]
    sf2 = find_sunflower(fam2, 5)
    assert sf2 is not None and sf2.core == frozenset({0})
    assert validate_sunflower(fam2, sf2)


def test_sunflower_absent():
    # pairwise intersections differ: {0,1},{1,2},{0,2} has no 3-sunflower
    fam = [frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})]
    assert find_sunflower(fam, 3) is None
    assert find_sunflower([], 1) is None
    with pytest.raises(ValueError):
        find_sunflower(fam, 0)


def test_sunflower_mixed_empty_core():
    fam = [frozenset(), frozenset(), frozenset({3}), frozenset({4})]
    sf = find_sunflower(fam, 4)
    assert sf is not None and sf.core == frozenset()
    assert validate_sunflower(fam, sf)


def recursive_find_sunflower(family, k):
    """find_sunflower as it was written before its tail recursion became a
    loop; the reference for the loop."""
    if k <= 0:
        raise ValueError("sunflower size must be positive")

    def recurse(indices, sets, core):
        chosen = []
        occupied = set()
        for i in indices:
            if not (sets[i] & occupied):
                chosen.append(i)
                occupied |= sets[i]
        if len(chosen) >= k:
            return Sunflower(core, tuple(chosen[:k]))
        if not occupied:
            return None
        counts = {}
        for i in indices:
            for x in sets[i]:
                counts[x] = counts.get(x, 0) + 1
        popular = max(sorted(counts), key=lambda x: counts[x])
        sub = [i for i in indices if popular in sets[i]]
        if len(sub) < k:
            return None
        return recurse(sub, {i: sets[i] - {popular} for i in sub}, core | {popular})

    return recurse(list(range(len(family))), dict(enumerate(family)), frozenset())


def test_sunflower_matches_the_recursive_search():
    rng = random.Random(71)
    found = 0
    for _ in range(2000):
        universe = rng.randint(1, 9)
        fam = [frozenset(rng.sample(range(universe), rng.randint(0, min(4, universe))))
               for _ in range(rng.randint(0, 12))]
        k = rng.randint(1, 4)
        got = find_sunflower(fam, k)
        assert got == recursive_find_sunflower(fam, k), (fam, k)
        found += got is not None and len(got.core) >= 2
    assert found >= 40  # the search went at least two levels deep that often


def test_sunflower_with_a_deep_core():
    core = frozenset(range(1100))
    fam = [core | {1100 + i} for i in range(3)]
    sf = find_sunflower(fam, 3)
    assert sf == Sunflower(core, (0, 1, 2))


def test_sunflower_guarantee_threshold():
    assert sunflower_guarantee(0, 3) == 1
    assert sunflower_guarantee(1, 3) == 3
    assert sunflower_guarantee(2, 3) == 18
    assert sunflower_guarantee(3, 2) == 48
    # property: any family above the threshold yields a sunflower
    rng = random.Random(13)
    for _ in range(50):
        lam = rng.randint(1, 3)
        k = rng.randint(2, 3)
        need = sunflower_guarantee(lam, k)
        fam = []
        for _ in range(need):
            size = rng.randint(0, lam)
            fam.append(frozenset(rng.sample(range(8), size)))
        sf = find_sunflower(fam, k)
        assert sf is not None
        assert validate_sunflower(fam, sf)
