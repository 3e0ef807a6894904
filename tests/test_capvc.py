import random

import pytest

from closurekernels.capvc import CapVcInstance, kernelize_capvc, twin_classes, twin_crown_rule
from closurekernels.closure import (
    count_maximal_cliques,
    neighborhood_class_bound,
    weak_closure_ordering,
)
from closurekernels.generators import complete_bipartite, star_graph
from closurekernels.graph import Graph
from closurekernels.oracles import solve_capvc_exact


def random_graph(rng, n, p):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def test_twin_classes_star():
    g = star_graph(4)
    assert twin_classes(g) == [(0,), (1, 2, 3, 4)]


def test_twin_classes_biclique():
    g = complete_bipartite(2, 3)
    assert twin_classes(g) == [(0, 1), (2, 3, 4)]


def test_instance_validation():
    g = star_graph(2)
    with pytest.raises(ValueError):
        CapVcInstance(g, (1, 1), 1)
    with pytest.raises(ValueError):
        CapVcInstance(g, (1, 1, 1), -1)


def test_rule_removes_min_capacity_member():
    # center 0 with capacity 3, leaves with capacities 0, 5, 7; k = 1 makes
    # the leaf class (3 members) eligible and the cap-0 leaf goes first
    g = star_graph(3)
    inst = CapVcInstance(g, (3, 0, 5, 7), 1)
    out, entry = twin_crown_rule(inst)
    assert entry is not None
    assert entry["removed"] == 1
    assert entry["decremented"] == [0]
    assert out.graph == star_graph(2)
    assert out.cap == (2, 5, 7)
    assert out.k == 1
    # remaining class has k+1 members, nothing more fires
    out2, entry2 = twin_crown_rule(out)
    assert entry2 is None and out2 == out


def test_kernel_star_leaves_k_plus_one():
    for m, k in [(6, 2), (5, 1), (9, 3), (4, 2)]:
        g = star_graph(m)
        inst = CapVcInstance(g, (m,) + (1,) * m, k)
        reduced, trace = kernelize_capvc(inst)
        assert len(trace) == m - (k + 1)
        assert reduced.graph == star_graph(k + 1)
        assert reduced.cap[0] == m - len(trace)


def test_kernel_isolated_class():
    # isolated vertices form one class with an empty neighborhood
    inst = CapVcInstance(Graph(5), (0,) * 5, 1)
    reduced, trace = kernelize_capvc(inst)
    assert len(trace) == 3
    assert reduced.graph.n == 2


def test_capacity_goes_negative():
    # repeated decrements may push a shared neighbor below zero
    g = star_graph(5)
    inst = CapVcInstance(g, (1,) + (2,) * 5, 1)
    reduced, _ = kernelize_capvc(inst)
    assert reduced.cap[0] == 1 - 3


def replay_capvc_trace(inst, trace):
    """Re-apply a recorded trace: each entry names the removed vertex and
    the vertices whose capacity dropped by one."""
    for entry in trace:
        cap = list(inst.cap)
        for v in entry["decremented"]:
            cap[v] -= 1
        inst = inst.without([entry["removed"]], cap=tuple(cap))
    return inst


def test_trace_replay_matches():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 9)
        g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        inst = CapVcInstance(g, tuple(rng.randint(0, 3) for _ in range(n)), rng.randint(0, 3))
        reduced, trace = kernelize_capvc(inst)
        assert replay_capvc_trace(inst, trace) == reduced


def test_kernel_is_deterministic():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(2, 8)
        g = random_graph(rng, n, 0.5)
        inst = CapVcInstance(g, tuple(rng.randint(0, 2) for _ in range(n)), 2)
        a = kernelize_capvc(inst)
        b = kernelize_capvc(inst)
        assert a == b


def test_kernel_preserves_oracle_answer():
    rng = random.Random(2024)
    checked = 0
    for _ in range(120):
        n = rng.randint(3, 8)
        g = random_graph(rng, n, rng.choice([0.25, 0.5]))
        if g.m > 16:
            continue
        k = rng.randint(0, 3)
        cap = tuple(rng.randint(0, 3) for _ in range(n))
        inst = CapVcInstance(g, cap, k)
        reduced, trace = kernelize_capvc(inst)
        before = solve_capvc_exact(g, cap, k).answer
        after = solve_capvc_exact(reduced.graph, reduced.cap, reduced.k).answer
        assert before == after, (g.edges(), cap, k, trace)
        checked += 1
    assert checked >= 60


def test_reduced_yes_instances_respect_size_bound():
    rng = random.Random(99)
    checked = 0
    for _ in range(150):
        n = rng.randint(3, 9)
        g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.7]))
        if g.m > 16:
            continue
        k = rng.randint(1, 3)
        cap = tuple(rng.randint(0, 3) for _ in range(n))
        reduced, _ = kernelize_capvc(CapVcInstance(g, cap, k))
        if not solve_capvc_exact(reduced.graph, reduced.cap, reduced.k).answer:
            continue
        wc = weak_closure_ordering(reduced.graph).weak_closure
        mk = count_maximal_cliques(reduced.graph)
        bound = k + neighborhood_class_bound(k, wc, k + 2, clique_count=mk)
        assert reduced.graph.n <= bound
        checked += 1
    assert checked >= 30
