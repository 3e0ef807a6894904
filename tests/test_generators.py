"""Tests for instance generators."""
import random
from itertools import product

import pytest

from closurekernels import generators
from closurekernels.closure import closure_number, weak_closure_ordering
from closurekernels.domset import is_split
from closurekernels.generators import (
    complete_bipartite,
    composition_layout,
    gen_capvc_lowerbound,
    gen_is_composition,
    gen_random_bipartite,
    gen_random_split,
    gen_random_weakly_closed,
)
from closurekernels.graph import Graph
from closurekernels.oracles import (
    solve_capvc_exact,
    solve_exact_set_cover,
    solve_is_exact,
)


def random_cover_family(rng, lam, k, nsets):
    universe = range(lam * k)
    fam = []
    for _ in range(nsets):
        fam.append(frozenset(rng.sample(universe, lam)))
    return fam


class TestCapVcGadget:
    def test_shape_and_capacities_frozen(self):
        inst = gen_capvc_lowerbound(3, [frozenset({0, 1, 2})], 3, 1)
        assert inst.graph.n == 13
        assert inst.graph.m == 27
        assert inst.k == 7
        assert inst.cap == (6, 6, 5, 4, 1, 2, 3, 0, 0, 0, 0, 0, 0)

    def test_edge_count_formula(self):
        rng = random.Random(11)
        for k in (1, 2):
            for nsets in (0, 1, 3, 5):
                fam = random_cover_family(rng, 3, k, nsets)
                inst = gen_capvc_lowerbound(3 * k, fam, 3, k)
                lam = 3
                assert inst.graph.m == (2 * lam * k + 2 * lam * len(fam)
                                        + lam * k * (2 * lam * k - 1))

    def test_closure_bound(self):
        rng = random.Random(13)
        for _ in range(5):
            fam = random_cover_family(rng, 3, 1, rng.randint(0, 4))
            inst = gen_capvc_lowerbound(3, fam, 3, 1)
            assert closure_number(inst.graph) <= 7

    def test_single_covering_triple_yes_both_sides(self):
        fam = [frozenset({0, 1, 2})]
        inst = gen_capvc_lowerbound(3, fam, 3, 1)
        assert solve_exact_set_cover(3, fam, 3, 1).answer
        assert solve_capvc_exact(inst.graph, inst.cap, inst.k, max_n=40).answer

    def test_empty_family_no_both_sides(self):
        inst = gen_capvc_lowerbound(3, [], 3, 1)
        assert solve_exact_set_cover(3, [], 3, 1).answer is False
        assert solve_capvc_exact(inst.graph, inst.cap, inst.k, max_n=40).answer is False

    def test_overlapping_triples_no_both_sides(self):
        # at k=1 every size-3 set over a 3-element universe is the whole
        # universe, so the overlapping no-case needs k=2
        fam = [frozenset({0, 1, 2}), frozenset({2, 3, 4})]
        inst = gen_capvc_lowerbound(6, fam, 3, 2)
        assert solve_exact_set_cover(6, fam, 3, 2).answer is False
        assert solve_capvc_exact(inst.graph, inst.cap, inst.k, max_n=40).answer is False

    def test_partition_yes_at_k2(self):
        fam = [frozenset({0, 1, 2}), frozenset({3, 4, 5})]
        inst = gen_capvc_lowerbound(6, fam, 3, 2)
        assert solve_exact_set_cover(6, fam, 3, 2).answer
        assert solve_capvc_exact(inst.graph, inst.cap, inst.k, max_n=40).answer

    def test_random_cross_oracle_equivalence(self):
        rng = random.Random(17)
        yes = no = 0
        for trial in range(30):
            k = 2 if trial % 6 == 0 else 1
            fam = random_cover_family(rng, 3, k, rng.randint(0, 4))
            inst = gen_capvc_lowerbound(3 * k, fam, 3, k)
            want = solve_exact_set_cover(3 * k, fam, 3, k).answer
            got = solve_capvc_exact(inst.graph, inst.cap, inst.k, max_n=40).answer
            assert got == want
            if want:
                yes += 1
            else:
                no += 1
        assert yes >= 3 and no >= 3

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            gen_capvc_lowerbound(4, [], 3, 1)
        with pytest.raises(ValueError):
            gen_capvc_lowerbound(3, [frozenset({0, 1})], 3, 1)
        with pytest.raises(ValueError):
            gen_capvc_lowerbound(3, [frozenset({0, 1, 7})], 3, 1)
        with pytest.raises(ValueError):
            gen_capvc_lowerbound(0, [], 3, 0)

    def test_deterministic(self):
        fam = [frozenset({0, 1, 2}), frozenset({1, 2, 3}),
               frozenset({3, 4, 5})]
        a = gen_capvc_lowerbound(6, fam, 3, 2)
        b = gen_capvc_lowerbound(6, fam, 3, 2)
        assert a.graph.edges() == b.graph.edges()
        assert a.cap == b.cap and a.k == b.k


def yes_micro():
    return (Graph(1, []), [(0,)])


def no_micro():
    return (Graph(0, []), [()])


class TestComposition:
    def test_selector_path_layout_t2(self):
        layout = composition_layout([no_micro()] * 4, 2, 2, 1)
        assert layout["path_ids"][(0, 0)] == (0, 1)
        assert layout["path_ids"][(0, 1)] == (2, 3)
        assert layout["groups"][(0, 0, 1)] == (0,)
        assert layout["groups"][(0, 0, 2)] == (1,)
        assert layout["n"] == 4

    def test_selector_path_layout_t3(self):
        layout = composition_layout([no_micro()] * 9, 3, 2, 1)
        ids = layout["path_ids"][(0, 0)]
        assert len(ids) == 2 * 3 - 2
        # value groups: the two path ends are singletons, the middle
        # value takes the second and third path vertices
        assert layout["groups"][(0, 0, 1)] == (ids[0],)
        assert layout["groups"][(0, 0, 2)] == (ids[1], ids[2])
        assert layout["groups"][(0, 0, 3)] == (ids[3],)

    def test_paths_are_paths_in_host(self):
        insts = [yes_micro() if i % 2 else no_micro() for i in range(9)]
        host, _ = gen_is_composition(insts, 3, 2, 1)
        layout = composition_layout(insts, 3, 2, 1)
        for ids in layout["path_ids"].values():
            for a, b in zip(ids, ids[1:]):
                assert b in host.adj(a)

    def test_budget_formula(self):
        _, kp = gen_is_composition([no_micro()] * 4, 2, 2, 1)
        assert kp == 2 * 1 * 2 - 2 * 1 + 1 == 3

    def test_all_sixteen_patterns(self):
        for pattern in product([False, True], repeat=4):
            insts = [yes_micro() if p else no_micro() for p in pattern]
            host, kp = gen_is_composition(insts, 2, 2, 1)
            got = solve_is_exact(host, kp, max_n=20).answer
            assert got == any(pattern), pattern

    def test_two_layer_composition(self):
        # k=2 admits nonempty no-instances: two singleton parts joined
        # by an edge leave no independent pick of one vertex per part
        no2 = (Graph(2, [(0, 1)]), [(0,), (1,)])
        yes2 = (Graph(2, []), [(0,), (1,)])
        host, kp = gen_is_composition([no2] * 4, 2, 2, 2)
        assert kp == 6
        assert solve_is_exact(host, kp, max_n=20).answer is False
        insts = [no2, yes2, no2, no2]
        host, kp = gen_is_composition(insts, 2, 2, 2)
        assert solve_is_exact(host, kp, max_n=20).answer

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            gen_is_composition([no_micro()] * 3, 2, 2, 1)
        with pytest.raises(ValueError):
            gen_is_composition([no_micro()] * 4, 2, 1, 1)
        big = (Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
               [(0, 1, 2, 3)])
        with pytest.raises(ValueError):
            gen_is_composition([big] + [no_micro()] * 3, 2, 2, 1)
        notclique = (Graph(2, []), [(0, 1)])
        with pytest.raises(ValueError):
            gen_is_composition([notclique] + [no_micro()] * 3, 2, 2, 1)

    def test_deterministic(self):
        insts = [yes_micro(), no_micro(), yes_micro(), no_micro()]
        a, _ = gen_is_composition(insts, 2, 2, 1)
        b, _ = gen_is_composition(insts, 2, 2, 1)
        assert a.edges() == b.edges()


def bipartition_exists(g):
    color = {}
    for s in g.vertices():
        if s in color:
            continue
        color[s] = 0
        queue = [s]
        while queue:
            u = queue.pop()
            for w in g.adj(u):
                if w not in color:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return False
    return True


class TestRandomFamilies:
    def test_split_outputs_are_split(self):
        for seed in range(30):
            assert is_split(gen_random_split(9, seed))

    def test_split_deterministic(self):
        assert gen_random_split(10, 5).edges() == gen_random_split(10, 5).edges()

    def test_bipartite_outputs_are_bipartite(self):
        for seed in range(30):
            assert bipartition_exists(gen_random_bipartite(10, seed))

    def test_bipartite_deterministic(self):
        a = gen_random_bipartite(12, 9)
        b = gen_random_bipartite(12, 9)
        assert a.edges() == b.edges()

    def test_weakly_closed_hits_target(self):
        for target in (1, 2, 3):
            for seed in range(5):
                g = gen_random_weakly_closed(9, target, seed)
                assert weak_closure_ordering(g).weak_closure <= target

    def test_weakly_closed_deterministic(self):
        a = gen_random_weakly_closed(8, 2, 3)
        b = gen_random_weakly_closed(8, 2, 3)
        assert a.edges() == b.edges()

    def test_weakly_closed_exhausted_raises(self, monkeypatch):
        monkeypatch.setattr(generators, "_MAX_ATTEMPTS", 0)
        with pytest.raises(ValueError):
            gen_random_weakly_closed(8, 1, 0)

    def test_k_ab_frozen_parameters(self):
        g = complete_bipartite(2, 5)
        assert g.n == 7 and g.m == 10
        assert closure_number(g) == 6
        assert weak_closure_ordering(g).weak_closure == 3


@pytest.mark.parametrize("build", [lambda: complete_bipartite(-1, 3),
                                   lambda: complete_bipartite(3, -1),
                                   lambda: generators.star_graph(-1)])
def test_named_graphs_reject_negative_sizes(build):
    with pytest.raises(ValueError, match="nonnegative"):
        build()
