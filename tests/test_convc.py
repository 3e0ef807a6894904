import random
from itertools import combinations

import pytest

from closurekernels.convc import (
    AnnotatedConVcInstance,
    CocInstance,
    ConVcInstance,
    Decided,
    _connected_sets,
    attach_leaves,
    component_twin_rule,
    connected_set_twin_classes,
    decided_instance,
    find_simplicial,
    kernelize_coc,
    kernelize_convc,
    kernelize_convc_annotated,
    kernelize_convc_c,
    simplicial_rule,
    small_component_rule,
    trivial_rules,
    twinset_rule,
)
from closurekernels.generators import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from closurekernels.graph import Graph
from closurekernels.oracles import is_connected_set, solve_coc_exact, solve_convc_exact


def random_graph(rng, n, p):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# twinset route

def test_twinset_biclique_shrinks_to_square():
    inst = ConVcInstance(complete_bipartite(2, 5), 3)
    reduced, trace = kernelize_convc(inst)
    assert reduced.graph == complete_bipartite(2, 2)
    assert len(trace) == 3
    assert [e["removed"] for e in trace] == [6, 5, 4]


def test_twinset_star_shrinks_to_edge():
    inst = ConVcInstance(star_graph(5), 2)
    reduced, trace = kernelize_convc(inst)
    assert reduced.graph == path_graph(2)
    assert len(trace) == 4


def test_twinset_skips_balanced_classes():
    inst = ConVcInstance(complete_bipartite(3, 3), 3)
    _, entry = twinset_rule(inst)
    assert entry is None


def test_twinset_drops_duplicate_isolated():
    g = Graph(4, [(0, 1)])
    reduced, trace = kernelize_convc(ConVcInstance(g, 1))
    # isolated vertices 2 and 3 are false twins with empty neighborhood
    assert reduced.graph.n == 3
    assert len(trace) == 1


def test_twinset_preserves_oracle_answer():
    rng = random.Random(31)
    for _ in range(150):
        n = rng.randint(2, 8)
        g = random_graph(rng, n, rng.choice([0.25, 0.5, 0.8]))
        if g.m > 20:
            continue
        k = rng.randint(0, 4)
        reduced, _ = kernelize_convc(ConVcInstance(g, k))
        before = solve_convc_exact(g, k).answer
        after = solve_convc_exact(reduced.graph, reduced.k).answer
        assert before == after, (g.edges(), k)


# ---------------------------------------------------------------------------
# annotated route

def test_trivial_removes_isolated_whites():
    g = Graph(4, [(1, 2)])
    inst = AnnotatedConVcInstance(g, frozenset({3}), 2)
    out, entry = trivial_rules(inst)
    assert entry == {"rule": "isolated-white", "removed": [0]}
    assert out.graph.n == 3
    # old vertex 3 is now 2 and still red
    assert out.red == frozenset({2})


def test_trivial_two_edge_components_is_no():
    g = Graph(4, [(0, 1), (2, 3)])
    out, entry = trivial_rules(AnnotatedConVcInstance(g, frozenset(), 4))
    assert isinstance(out, Decided) and out.answer is False
    assert entry["rule"] == "split-edges"


def test_trivial_two_red_components_is_no():
    # isolated vertex 3 is red, so it survives the isolated-white sweep
    g = Graph(4, [(0, 1), (1, 2)])
    out, _ = trivial_rules(AnnotatedConVcInstance(g, frozenset({0, 3}), 5))
    assert isinstance(out, Decided) and out.answer is False


def test_trivial_single_vertex_solution_is_yes():
    out, entry = trivial_rules(AnnotatedConVcInstance(path_graph(3), frozenset(), 1))
    assert isinstance(out, Decided) and out.answer is True
    assert entry["decided"] == "yes"
    # with zero budget the same graph is not decided
    out2, entry2 = trivial_rules(AnnotatedConVcInstance(path_graph(3), frozenset(), 0))
    assert entry2 is None and out2.graph == path_graph(3)


def _naive_single_vertex(inst):
    # the old form of the single-vertex test: one edge-list scan per vertex
    g, red = inst.graph, inst.red
    return inst.k >= 1 and any(red <= {v} and all(v in (a, b) for a, b in g.edges())
                               for v in g.vertices())


def test_trivial_single_vertex_matches_naive_edge_scan():
    rng = random.Random(37)
    outcomes = set()
    for trial in range(400):
        n = rng.randint(0, 7)
        hub = rng.randrange(n) if n else None
        p = 0.0 if trial % 4 == 0 else rng.choice([0.1, 0.3])  # every fourth edgeless
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < (0.8 if hub in (u, v) and p else p)]
        red = frozenset(rng.sample(range(n), min(n, rng.randint(0, 2))))
        inst = AnnotatedConVcInstance(Graph(n, edges), red, rng.randint(0, 2))
        out, entry = trivial_rules(inst)
        while entry is not None and entry["rule"] == "isolated-white":
            inst = out
            out, entry = trivial_rules(inst)
        if entry is not None and entry["rule"] != "single-vertex":
            continue  # decided by a component rule first
        fired = entry is not None
        assert fired == _naive_single_vertex(inst), (n, edges, sorted(red))
        outcomes.add((fired, inst.graph.m == 0))
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


def test_find_simplicial():
    assert find_simplicial(path_graph(4)) == 0
    assert find_simplicial(cycle_graph(5)) is None
    assert find_simplicial(complete_graph(4)) == 0


def test_simplicial_white_colors_neighborhood():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (1, 3)])  # triangle 1-2-3 plus pendant 0
    out, entry = simplicial_rule(AnnotatedConVcInstance(g, frozenset(), 3))
    assert entry["removed"] == 0 and entry["was_red"] is False
    assert out.red == frozenset({0})  # old vertex 1
    assert out.k == 3
    assert out.graph == complete_graph(3)


def test_simplicial_red_pays_budget():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
    out, entry = simplicial_rule(AnnotatedConVcInstance(g, frozenset({0}), 2))
    # red and degree one: budget drops and the neighborhood turns red
    assert entry["was_red"] is True and entry["colored_red"] == [1]
    assert out.k == 1
    assert out.red == frozenset({0})


def test_simplicial_red_exhausts_budget():
    g = path_graph(3)
    out, _ = simplicial_rule(AnnotatedConVcInstance(g, frozenset({0}), 0))
    assert isinstance(out, Decided) and out.answer is False


def test_simplicial_preconditions():
    # fewer than 3 vertices, or more than one component: the rule does not
    # fire, though every graph here has a simplicial vertex
    for g in (path_graph(2), Graph(4, [(0, 1), (2, 3)])):
        inst = AnnotatedConVcInstance(g, frozenset(), 1)
        assert simplicial_rule(inst) == (inst, None)


def test_attach_leaves():
    inst = AnnotatedConVcInstance(path_graph(2), frozenset({0}), 1)
    plain = attach_leaves(inst)
    assert plain.graph == Graph(3, [(0, 1), (0, 2)])
    assert plain.k == 1


def test_annotated_kernel_path5():
    # three simplicial eliminations leave one red edge, which the
    # single-vertex rule then resolves to Yes
    reduced, trace = kernelize_convc_annotated(
        AnnotatedConVcInstance(path_graph(5), frozenset(), 3))
    assert isinstance(reduced, Decided) and reduced.answer is True
    assert [e["rule"] for e in trace] == ["simplicial"] * 3 + ["single-vertex"]


def _plain_closure_route(inst):
    """The closure-number route as `kernel convc --mode c` writes it: a
    decision becomes its canonical instance, red marks become leaves."""
    reduced, trace = kernelize_convc_c(inst)
    if isinstance(reduced, Decided):
        reduced = decided_instance(reduced)
    return attach_leaves(reduced), trace


def test_closure_route_path5():
    reduced, _ = _plain_closure_route(ConVcInstance(path_graph(5), 3))
    assert reduced == ConVcInstance(Graph(0), 0)


def test_closure_route_cycle_roundtrip():
    # pendant elimination marks the attachment red, and the leaf it grows
    # back lands on the same spot: the instance reproduces itself
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5)])
    reduced, trace = _plain_closure_route(ConVcInstance(g, 3))
    assert reduced == ConVcInstance(g, 3)
    assert [e["rule"] for e in trace] == ["simplicial"]
    # a plain cycle has no simplicial vertex and passes through untouched
    c5 = cycle_graph(5)
    reduced2, trace2 = _plain_closure_route(ConVcInstance(c5, 3))
    assert reduced2 == ConVcInstance(c5, 3) and trace2 == []


def test_closure_route_decides_no_on_budget():
    reduced, trace = _plain_closure_route(ConVcInstance(path_graph(5), 1))
    assert reduced == ConVcInstance(Graph(2, [(0, 1)]), 0)
    assert trace[-1]["decided"] == "no"


def test_closure_route_decides_yes():
    reduced, _ = _plain_closure_route(ConVcInstance(path_graph(3), 1))
    assert reduced == ConVcInstance(Graph(0), 0)


def test_closure_route_disconnected_no():
    g = Graph(4, [(0, 1), (2, 3)])
    reduced, _ = _plain_closure_route(ConVcInstance(g, 4))
    assert reduced == ConVcInstance(Graph(2, [(0, 1)]), 0)


def test_closure_route_preserves_oracle_answer():
    rng = random.Random(47)
    for _ in range(150):
        n = rng.randint(1, 8)
        g = random_graph(rng, n, rng.choice([0.2, 0.45, 0.7]))
        if g.m > 18:
            continue
        k = rng.randint(0, 4)
        reduced, _ = _plain_closure_route(ConVcInstance(g, k))
        before = solve_convc_exact(g, k).answer
        after = solve_convc_exact(reduced.graph, reduced.k, max_n=20).answer
        assert before == after, (g.edges(), k)


def test_annotated_kernel_preserves_oracle_answer():
    rng = random.Random(53)
    for _ in range(120):
        n = rng.randint(1, 7)
        g = random_graph(rng, n, rng.choice([0.3, 0.6]))
        if g.m > 16:
            continue
        k = rng.randint(0, 3)
        red = frozenset(v for v in range(n) if rng.random() < 0.25)
        inst = AnnotatedConVcInstance(g, red, k)
        reduced, _ = kernelize_convc_annotated(inst)
        before = solve_convc_exact(g, k, required=red).answer
        if isinstance(reduced, Decided):
            assert reduced.answer == before, (g.edges(), sorted(red), k)
        else:
            after = solve_convc_exact(reduced.graph, reduced.k,
                                      required=reduced.red).answer
            assert before == after, (g.edges(), sorted(red), k)


# ---------------------------------------------------------------------------
# component order connectivity

def test_coc_instance_validation():
    g = path_graph(3)
    with pytest.raises(ValueError):
        CocInstance(g, 0, 1)
    with pytest.raises(ValueError):
        CocInstance(g, 5, 1)
    with pytest.raises(ValueError):
        CocInstance(g, 1, -1)


def test_small_component_rule():
    # triangle, one edge, one isolated vertex; bound 2 keeps only the triangle
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4)])
    out, entry = small_component_rule(CocInstance(g, 2, 1))
    assert entry["removed"] == [3, 4, 5]
    assert out.graph == complete_graph(3)
    out2, entry2 = small_component_rule(out)
    assert entry2 is None and out2 == out


def test_connected_set_twin_classes_star_singletons():
    classes = connected_set_twin_classes(star_graph(4), 1)
    assert classes == [[(0,)], [(1,), (2,), (3,), (4,)]]


def test_connected_set_twin_classes_pairs():
    # two disjoint path edges hanging off a common apex are 2-twins
    g = Graph(5, [(0, 1), (1, 2), (0, 3), (3, 4)])
    classes = connected_set_twin_classes(g, 2)
    assert [(1, 2), (3, 4)] in classes


def test_connected_sets_match_filtered_combinations():
    # the old form, kept as the reference: every r-subset, filtered
    rng = random.Random(53)
    sizes = set()
    for _ in range(300):
        n = rng.randint(0, 11)
        g = random_graph(rng, n, rng.choice([0.15, 0.3, 0.6]))
        for r in range(1, 4):
            want = [t for t in combinations(g.vertices(), r) if is_connected_set(g, t)]
            assert _connected_sets(g, r) == want, (n, g.edges(), r)
            sizes.add((r, len(want) > 0))
    assert sizes == {(r, found) for r in range(1, 4) for found in (True, False)}


def test_component_twin_rule_star():
    inst = CocInstance(star_graph(5), 1, 0)
    out, entry = component_twin_rule(inst)
    assert entry["rule"] == "component-twin"
    assert entry["size"] == 1
    # k + ell + 2 = 3 disjoint members needed; the third is deleted
    assert entry["removed"] == [3]
    assert out.graph == star_graph(4)


def test_kernelize_coc_star():
    reduced, trace = kernelize_coc(CocInstance(star_graph(5), 1, 0))
    assert reduced.graph == star_graph(2)
    assert len(trace) == 3
    assert solve_coc_exact(reduced.graph, 1, 0).answer is False


def test_kernelize_coc_pendant_pairs():
    # four pendant paths off apex 0 meet the k+ell+2 = 4 threshold exactly;
    # one copy goes and the class drops below threshold
    g = Graph(9, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6), (0, 7), (7, 8)])
    inst = CocInstance(g, 2, 0)
    reduced, trace = kernelize_coc(inst)
    assert [e["rule"] for e in trace] == ["component-twin"]
    assert trace[0]["removed"] == [7, 8]
    assert reduced.graph.n == 7
    assert solve_coc_exact(g, 2, 0).answer == solve_coc_exact(
        reduced.graph, 2, reduced.k).answer is False


def test_kernelize_coc_preserves_oracle_answer():
    rng = random.Random(61)
    for _ in range(150):
        n = rng.randint(1, 8)
        g = random_graph(rng, n, rng.choice([0.15, 0.3, 0.55]))
        if g.m > 18:
            continue
        ell = rng.choice([1, 2])
        k = rng.randint(0, 2)
        reduced, _ = kernelize_coc(CocInstance(g, ell, k))
        before = solve_coc_exact(g, ell, k).answer
        after = solve_coc_exact(reduced.graph, ell, reduced.k).answer
        assert before == after, (g.edges(), ell, k)


def test_kernelize_coc_deterministic():
    rng = random.Random(71)
    for _ in range(25):
        g = random_graph(rng, 7, 0.3)
        inst = CocInstance(g, 2, 1)
        assert kernelize_coc(inst) == kernelize_coc(inst)
