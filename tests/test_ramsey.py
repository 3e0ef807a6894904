"""Tests for the clique-or-independent-set machinery."""
import random
from itertools import combinations
from math import comb

import pytest

from closurekernels import ramsey
from closurekernels.closure import weak_closure_ordering
from closurekernels.generators import complete_graph, gen_random_split, gen_random_weakly_closed
from closurekernels.graph import Graph, is_clique, is_independent_set
from closurekernels.ramsey import (
    RamseyWitness,
    _BRUTE_CAP,
    _brute_subset,
    clique_or_independent_set,
    r_gamma_bound,
    validate_witness,
)


def random_graph(rng, max_n=12):
    n = rng.randint(0, max_n)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < rng.choice([0.2, 0.5, 0.8])]
    return Graph(n, edges)


def disjoint_cliques(sizes):
    edges = []
    start = 0
    for s in sizes:
        edges.extend((start + i, start + j)
                     for i in range(s) for j in range(i + 1, s))
        start += s
    return Graph(start, edges)


def relabelled(g, rng):
    """g with its vertices renamed by a random permutation."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def random_forest(rng, max_n=20):
    n = rng.randint(1, max_n)
    edges = []
    for v in range(1, n):
        if rng.random() < 0.8:
            edges.append((rng.randrange(v), v))
    return Graph(n, edges)


class TestThreshold:
    def test_degenerate_sizes(self):
        assert r_gamma_bound(1, 1, 1) == 1
        assert r_gamma_bound(1, 5, 3) == 1
        assert r_gamma_bound(7, 1, 2) == 1

    def test_frozen_values(self):
        # hand-computed from the two counting expressions, then pushed up
        # to restore monotonicity where the closed forms dip
        assert r_gamma_bound(2, 2, 1) == 9
        assert r_gamma_bound(2, 3, 1) == 25
        assert r_gamma_bound(3, 2, 1) == 13
        assert r_gamma_bound(3, 3, 1) == 37
        assert r_gamma_bound(4, 2, 1) == 17
        assert r_gamma_bound(2, 2, 2) == 9
        assert r_gamma_bound(2, 3, 2) == 25
        assert r_gamma_bound(2, 4, 2) == 57
        assert r_gamma_bound(3, 3, 2) == 63

    def test_edgeless_forcing_floor(self):
        for b in range(1, 9):
            for gamma in range(1, 4):
                assert r_gamma_bound(2, b, gamma) >= b

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            r_gamma_bound(0, 2, 1)
        with pytest.raises(ValueError):
            r_gamma_bound(2, 0, 1)
        with pytest.raises(ValueError):
            r_gamma_bound(2, 2, 0)

    def test_monotone_in_every_argument(self):
        for a in range(1, 6):
            for b in range(1, 6):
                for gamma in range(1, 5):
                    here = r_gamma_bound(a, b, gamma)
                    if a > 1:
                        assert here >= r_gamma_bound(a - 1, b, gamma)
                    if b > 1:
                        assert here >= r_gamma_bound(a, b - 1, gamma)
                    if gamma > 1:
                        assert here >= r_gamma_bound(a, b, gamma - 1)


class TestWitnessSearch:
    def test_empty_graph(self):
        assert clique_or_independent_set(Graph(0, []), 2, 2) is None

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            clique_or_independent_set(Graph(3, []), 0, 2)

    def test_clique_in_k4_plus_isolates(self):
        g = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        w = clique_or_independent_set(g, 4, 5)
        assert w == RamseyWitness("clique", (0, 1, 2, 3))

    def test_independent_set_in_edgeless(self):
        w = clique_or_independent_set(Graph(7, []), 3, 5)
        assert w is not None
        assert w.kind == "independent-set"
        assert len(w.vertices) == 5
        assert validate_witness(Graph(7, []), w)

    def test_none_when_neither_exists(self):
        assert clique_or_independent_set(complete_graph(2), 3, 3) is None

    def test_block_walk_answers_before_subset_search(self):
        # P3 holds both witnesses; the inductive walk reaches the
        # independent one and that is what comes back, every time
        w = clique_or_independent_set(Graph(3, [(0, 1), (1, 2)]), 2, 2)
        assert w == RamseyWitness("independent-set", (0, 2))

    def test_witnesses_validate_on_random_graphs(self):
        rng = random.Random(179)
        answered = 0
        for _ in range(300):
            g = random_graph(rng)
            a = rng.randint(1, 4)
            b = rng.randint(1, 4)
            w = clique_or_independent_set(g, a, b)
            if w is None:
                # exhaustive search really found neither
                assert all(not is_clique(g, s)
                           for s in _subsets(g.n, a))
                assert all(not is_independent_set(g, s)
                           for s in _subsets(g.n, b))
            else:
                answered += 1
                assert validate_witness(g, w)
                assert len(w.vertices) == (a if w.kind == "clique" else b)
        assert answered >= 200

    def test_constructive_path_on_large_clique_union(self):
        # 30 vertices: subset search over C(30, 10) stays affordable but the
        # block walk should already deliver the answer
        g = disjoint_cliques([2] * 15)
        w = clique_or_independent_set(g, 3, 10)
        assert w is not None
        assert w.kind == "independent-set"
        assert validate_witness(g, w)
        assert len(w.vertices) == 10

    def _block_walk_cliques(self, monkeypatch, graphs, a, b):
        """Check the block walk's answer on each graph; returns how many
        cliques it found on a common neighbourhood of gamma independent
        vertices and how many through the recursive search inside one
        neighbourhood class (the search's clique is returned at once)."""
        inner = []
        search = ramsey.clique_or_independent_set

        def spy(*args):
            inner.append(search(*args))
            return inner[-1]

        monkeypatch.setattr(ramsey, "clique_or_independent_set", spy)
        common = recursive = 0
        for g in graphs:
            inner.clear()
            w = ramsey._constructive(g, a, b)
            if w is None:
                continue
            assert validate_witness(g, w)
            assert len(w.vertices) == (a if w.kind == "clique" else b)
            if w.kind == "independent-set":
                continue
            if inner and inner[-1] is not None and inner[-1].kind == "clique":
                recursive += 1
            else:
                common += 1
        return common, recursive

    def test_block_walk_clique_on_common_neighbours(self, monkeypatch):
        rng = random.Random(191)
        graphs = (relabelled(gen_random_weakly_closed(18, 1, seed), rng) for seed in range(200))
        common, _ = self._block_walk_cliques(monkeypatch, graphs, 2, 5)
        assert common >= 5

    def test_block_walk_clique_from_the_recursive_search(self, monkeypatch):
        rng = random.Random(193)
        graphs = (relabelled(gen_random_split(23, seed), rng) for seed in range(600))
        _, recursive = self._block_walk_cliques(monkeypatch, graphs, 5, 4)
        assert recursive >= 3

    def test_large_clique_found_past_constructive_range(self):
        g = complete_graph(25)
        w = clique_or_independent_set(g, 4, 26)
        assert w == RamseyWitness("clique", (0, 1, 2, 3))

    def test_guarantee_on_low_closure_families(self):
        rng = random.Random(181)
        checked = 0
        for _ in range(120):
            if rng.random() < 0.5:
                sizes = [rng.randint(1, 5)
                         for _ in range(rng.randint(1, 6))]
                g = disjoint_cliques(sizes)
            else:
                g = random_forest(rng)
            gamma = weak_closure_ordering(g).weak_closure
            for a in range(1, 5):
                for b in range(1, 5):
                    if g.n < r_gamma_bound(a, b, gamma):
                        continue
                    w = clique_or_independent_set(g, a, b)
                    assert w is not None
                    assert validate_witness(g, w)
                    checked += 1
        assert checked >= 100

    def test_deterministic(self):
        rng = random.Random(191)
        graphs = [random_graph(rng) for _ in range(40)]
        first = [clique_or_independent_set(g, 3, 3) for g in graphs]
        second = [clique_or_independent_set(g, 3, 3) for g in graphs]
        assert first == second


def _subsets(n, size):
    if size > n:
        return []
    return combinations(range(n), size)


class TestValidateWitness:
    def test_accepts_good_witnesses(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert validate_witness(g, RamseyWitness("clique", (1, 2)))
        assert validate_witness(g, RamseyWitness("independent-set", (0, 2)))

    def test_rejects_bad_witnesses(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert not validate_witness(g, RamseyWitness("clique", (0, 2)))
        assert not validate_witness(g, RamseyWitness("independent-set", (1, 2)))
        assert not validate_witness(g, RamseyWitness("clique", (1, 1)))
        assert not validate_witness(g, RamseyWitness("clique", (3, 4)))

    def test_kind_is_checked(self):
        with pytest.raises(ValueError):
            RamseyWitness("path", (0, 1))


def predicate_brute_subset(g, size, check):
    """_brute_subset as it was before the mask search: every subset in
    combinations order through the graph predicate; the reference."""
    if size > g.n or comb(g.n, size) > _BRUTE_CAP:
        return None
    for s in combinations(range(g.n), size):
        if check(g, s):
            return s
    return None


class TestBruteSubset:
    def test_matches_the_predicate_loop(self):
        rng = random.Random(211)
        found = 0
        for _ in range(4000):
            n = rng.randint(0, 11)
            p = rng.choice((0.1, 0.3, 0.5, 0.7, 0.9))
            g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
            size = rng.randint(0, n + 1)
            for clique, check in ((True, is_clique), (False, is_independent_set)):
                got = _brute_subset(g, size, clique)
                assert got == predicate_brute_subset(g, size, check), (g.edges(), size, clique)
                found += got is not None and size >= 3
        assert found >= 500  # the search went three levels deep that often

    def test_refuses_above_the_cap_and_answers_at_it(self):
        # C(30, 5) = 142,506 subsets are searched; C(40, 5) = 658,008 are not
        g = Graph(30, [(u, v) for u, v in combinations(range(30), 2) if (u + v) % 7])
        for size in (4, 5):
            for clique, check in ((True, is_clique), (False, is_independent_set)):
                got = _brute_subset(g, size, clique)
                assert got == predicate_brute_subset(g, size, check)
        assert _brute_subset(complete_graph(40), 5, True) is None
        assert _brute_subset(Graph(40), 5, False) is None

    def test_a_whole_vertex_set(self):
        # one subset, as deep as the graph: the search keeps its own stack
        g = Graph(3000)
        assert _brute_subset(g, 3000, False) == tuple(range(3000))
        assert _brute_subset(g, 2, True) is None
