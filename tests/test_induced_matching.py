import random

import pytest

from closurekernels.closure import degeneracy
from closurekernels.combinatorics import matching_number
from closurekernels.graph import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from closurekernels.induced_matching import (
    BipartiteSplit,
    ImInstance,
    dense_posterior_rule,
    greedy_low_degree_matching,
    im_twin_rule,
    kernelize_im,
    lp_threshold_rule,
    lp_yes_threshold,
    posterior_matching_threshold,
    posterior_size_split,
)
from closurekernels.oracles import is_induced_matching, solve_im_exact
from closurekernels.reduction import Decided


def random_graph(rng, n, p):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def test_threshold_arithmetic():
    assert posterior_matching_threshold(1, 1) == 2
    assert posterior_matching_threshold(3, 2) == 12
    # shrink chain at weak closure 1, budget 1: 7, 245, 300125, doubled
    assert lp_yes_threshold(1, 1) == 600250
    assert lp_yes_threshold(1, 0) == 0


def test_lp_rule_zero_budget_decides_yes():
    out, entry = lp_threshold_rule(ImInstance(path_graph(4), 0))
    assert isinstance(out, Decided) and out.answer is True
    assert entry["decided"] == "yes"


def test_lp_rule_quiet_on_small_graphs():
    # the smallest graph that could trip the threshold needs 300125
    # disjoint edges (weak closure 1, budget 1), far beyond what this
    # implementation can process, so only the quiet branch is reachable
    # at positive budget; the threshold arithmetic itself is frozen above
    out, entry = lp_threshold_rule(ImInstance(complete_graph(6), 2))
    assert entry is None and out == ImInstance(complete_graph(6), 2)


def test_dense_posterior_on_clique():
    # weak closure of a clique is 1; the first peeled vertex sees a
    # 4-vertex clique behind it, whose matching meets the threshold 2
    out, entry = dense_posterior_rule(ImInstance(complete_graph(5), 1))
    assert entry is not None
    assert entry["removed"] == 0
    assert out.graph == complete_graph(4)
    out2, entry2 = dense_posterior_rule(out)
    assert entry2 is None and out2 == out


def test_twin_rule_biclique():
    out, entry = im_twin_rule(ImInstance(complete_bipartite(2, 3), 1))
    assert entry == {"rule": "twin", "removed": 1, "kept": 0}
    assert out.graph == complete_bipartite(1, 3)


def test_twin_rule_quiet_without_twins():
    _, entry = im_twin_rule(ImInstance(path_graph(4), 1))
    assert entry is None


def test_kernel_biclique_fixpoint_is_single_edge():
    reduced, trace = kernelize_im(ImInstance(complete_bipartite(2, 3), 1))
    assert isinstance(reduced, ImInstance)
    assert reduced.graph == path_graph(2)
    assert [e["rule"] for e in trace] == ["twin"] * 3


def test_kernel_clique_stops_at_four():
    reduced, trace = kernelize_im(ImInstance(complete_graph(8), 1))
    assert isinstance(reduced, ImInstance)
    assert reduced.graph == complete_graph(4)
    assert all(e["rule"] == "dense-posterior" for e in trace)
    assert len(trace) == 4


def test_kernel_zero_budget():
    reduced, trace = kernelize_im(ImInstance(cycle_graph(6), 0))
    assert isinstance(reduced, Decided) and reduced.answer is True


def test_kernel_preserves_oracle_answer():
    rng = random.Random(83)
    for _ in range(200):
        n = rng.randint(1, 8)
        g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.7]))
        if g.m > 20:
            continue
        k = rng.randint(0, 3)
        reduced, _ = kernelize_im(ImInstance(g, k))
        before = solve_im_exact(g, k).answer
        if isinstance(reduced, Decided):
            assert reduced.answer == before, (g.edges(), k)
        else:
            after = solve_im_exact(reduced.graph, reduced.k).answer
            assert before == after, (g.edges(), k)


def test_kernel_deterministic():
    rng = random.Random(89)
    for _ in range(25):
        g = random_graph(rng, 7, 0.45)
        inst = ImInstance(g, 2)
        assert kernelize_im(inst) == kernelize_im(inst)


def test_posterior_size_split_star():
    split = posterior_size_split(ImInstance(star_graph(5), 1))
    assert split == BipartiteSplit((0,), (1, 2, 3, 4, 5), 1)


def test_greedy_matching_is_induced():
    rng = random.Random(97)
    for _ in range(120):
        n = rng.randint(1, 10)
        g = random_graph(rng, n, rng.choice([0.2, 0.5]))
        chosen = greedy_low_degree_matching(g)
        assert is_induced_matching(g, chosen)


def test_greedy_matching_degeneracy_ratio():
    rng = random.Random(101)
    for _ in range(120):
        n = rng.randint(2, 10)
        g = random_graph(rng, n, rng.choice([0.15, 0.35, 0.6]))
        if g.m == 0:
            continue
        d, _ = degeneracy(g)
        chosen = greedy_low_degree_matching(g)
        assert len(chosen) * (4 * d + 1) >= matching_number(g)


def test_instance_validation():
    with pytest.raises(ValueError):
        ImInstance(path_graph(2), -1)
