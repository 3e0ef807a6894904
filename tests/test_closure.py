"""Closure parameter engines, checked against exhaustive-ordering oracles."""
import json
import random
from collections import Counter
from itertools import combinations, permutations

import pytest

from closurekernels import cli
from closurekernels import closure as closure_module
from closurekernels.closure import (
    ClosureEngine,
    ClosureOrdering,
    closure_number,
    degeneracy,
    exhaustive_weak_closure,
    moon_moser_bound,
    neighborhood_class_bound,
    vertex_closure,
    verify_closure_ordering,
    weak_closure_ordering,
)
from closurekernels.generators import gen_random_split
from closurekernels.graph import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    empty_graph,
    last_graph_memo,
    path_graph,
    star_graph,
)
from closurekernels.induced_matching import ImInstance, kernelize_im
from closurekernels.instance_io import InstanceFile, write_instance
from closurekernels.oracles import solve_is_exact
from closurekernels.reduction import Decided


def random_graph(n, p, rng):
    return Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def brute_weak_closure_by_permutations(g):
    # direct min over all n! orders; only for tiny n
    best = None
    for order in permutations(range(g.n)):
        worst = 0
        alive = set(range(g.n))
        for v in order:
            nv = g.adj(v) & alive
            cl = 0
            for w in alive:
                if w == v or w in nv:
                    continue
                cl = max(cl, len(nv & g.adj(w) & alive))
            worst = max(worst, cl)
            alive.remove(v)
        cand = 1 + worst
        if best is None or cand < best:
            best = cand
    return 1 if best is None else best


def naive_weak_closure_ordering(g):
    # reference peeling: every closure recomputed from scratch at every
    # step, minimum closure first, ties to the smallest id
    remaining = set(g.vertices())
    order, steps = [], []
    while remaining:
        best_v, best_cl = -1, None
        for v in sorted(remaining):
            nv = g.adj(v) & remaining
            cl = 0
            for w in remaining:
                if w != v and w not in nv:
                    cl = max(cl, len(nv & g.adj(w) & remaining))
            if best_cl is None or cl < best_cl:
                best_v, best_cl = v, cl
        order.append(best_v)
        steps.append(best_cl)
        remaining.remove(best_v)
    return ClosureOrdering(tuple(order), tuple(steps), 1 + max(steps, default=0))


def naive_degeneracy(g):
    remaining = set(g.vertices())
    order, d = [], 0
    while remaining:
        v = min(remaining, key=lambda u: (len(g.adj(u) & remaining), u))
        d = max(d, len(g.adj(v) & remaining))
        order.append(v)
        remaining.remove(v)
    return d, tuple(order)


def with_twins(g, rng):
    # each vertex gets 0-2 copies, each a false twin (same open
    # neighborhood) or a true twin (also adjacent to the original)
    edges = g.edges()
    n = g.n
    for v in range(g.n):
        for _ in range(rng.randint(0, 2)):
            edges += [(w, n) for w in g.neighbors(v)]
            if rng.random() < 0.5:
                edges.append((v, n))
            n += 1
    return Graph(n, edges)


def engine_cases():
    rng = random.Random(1616)
    for _ in range(300):
        n = rng.randint(0, 16)
        yield random_graph(n, rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]), rng)
    for k in range(1, 8):
        yield complete_graph(k)
        yield star_graph(k)
        yield empty_graph(k)
        for b in range(1, 7):
            yield complete_bipartite(k, b)
    for _ in range(60):
        yield with_twins(random_graph(rng.randint(1, 6), rng.choice([0.3, 0.6]), rng), rng)
    # split graphs: a clique side dense enough for the mask builder, alone
    # and with true and false twin copies
    for seed in range(24):
        yield gen_random_split(rng.randint(8, 24), seed)
    for seed in range(12):
        yield with_twins(gen_random_split(rng.randint(4, 10), seed), rng)


def test_engine_matches_naive_peeling():
    for g in engine_cases():
        assert weak_closure_ordering(g) == naive_weak_closure_ordering(g)


def test_closure_number_is_one_plus_max_vertex_closure():
    for g in engine_cases():
        assert closure_number(g) == 1 + max((vertex_closure(g, v) for v in g.vertices()), default=0)


def test_degeneracy_matches_min_scan():
    for g in engine_cases():
        assert degeneracy(g) == naive_degeneracy(g)


def fresh_rows(g):
    # common-neighbor counts recomputed pair by pair
    return [{w: len(g.adj(v) & g.adj(w)) for w in g.vertices()
             if w != v and w not in g.adj(v) and g.adj(v) & g.adj(w)}
            for v in g.vertices()]


def test_both_count_builders_match_fresh_rows():
    rng = random.Random(3131)
    graphs = [random_graph(rng.randint(0, 8), rng.choice([0.2, 0.5, 0.9, 1.0]), rng)
              for _ in range(160)]
    graphs += [random_graph(rng.randint(20, 60), rng.choice([0.03, 0.1, 0.3, 0.7]), rng)
               for _ in range(120)]
    graphs += [split_with_twins(rng.randint(90, 110), seed, 4) for seed in range(20)]
    sides = Counter()
    for g in graphs:
        rows = fresh_rows(g)
        assert closure_module._wedge_rows(g) == rows
        assert closure_module._mask_rows(g) == rows
        table_rows, closures = closure_module._count_table.__wrapped__(g)
        assert table_rows == rows
        assert closures == [max(row.values(), default=0) for row in rows]
        assert ClosureEngine(g).hist == [
            [sum(c == i for c in row.values()) for i in range(top + 1)]
            for row, top in zip(rows, closures)]
        sides[closure_module._dense(g), g.n <= 8] += 1
    # both builders are chosen, for tiny graphs and for large ones
    assert all(sides[dense, tiny] >= 10 for dense in (False, True) for tiny in (False, True))


def test_histograms_follow_removals():
    rng = random.Random(2718)
    graphs = [random_graph(rng.randint(2, 40), rng.choice([0.1, 0.3, 0.6, 0.9]), rng)
              for _ in range(80)]
    graphs += [split_with_twins(rng.randint(20, 60), seed, 3) for seed in range(20)]
    for g in graphs:
        engine = ClosureEngine(g)
        victims = rng.sample(range(g.n), rng.randint(1, g.n))
        for x in victims:
            engine.remove(x)
        for v in engine.alive:
            row, hist = engine.rows[v], engine.hist[v]
            counts = Counter(row.values())
            assert all(hist[c] == counts[c] for c in range(len(hist)))
            assert set(counts) <= set(range(len(hist)))
            assert engine.closure[v] == max(row.values(), default=0)
            # the row holds exactly the alive partners' live counts
            alive_nb = g.adj(v) & engine.alive
            assert {w: c for w, c in row.items() if c} == {
                w: len(alive_nb & g.adj(w)) for w in engine.alive
                if w != v and w not in g.adj(v) and alive_nb & g.adj(w)}
        fresh = ClosureEngine(g)
        rows = fresh_rows(g)
        assert fresh.rows == rows
        assert fresh.closure == [max(row.values(), default=0) for row in rows]
        assert fresh.peel() == weak_closure_ordering(g)


def test_engines_on_one_graph_are_independent():
    for g in engine_cases():
        first, second = ClosureEngine(g), ClosureEngine(g)
        first.peel()
        rows = fresh_rows(g)
        closures = [max(row.values(), default=0) for row in rows]
        assert second.rows == rows and second.closure == closures
        assert second.peel() == naive_weak_closure_ordering(g)
        third = ClosureEngine(g)
        assert third.rows == rows and third.closure == closures


def test_weak_closure_ordering_follows_the_graph_asked_about():
    # the ordering is kept for the last graph only, so asking about g, then
    # h, then g again must give g's ordering each time
    rng = random.Random(4040)
    for _ in range(40):
        g = random_graph(rng.randint(5, 14), rng.choice([0.3, 0.5, 0.7]), rng)
        h = random_graph(rng.randint(5, 14), rng.choice([0.3, 0.5, 0.7]), rng)
        for x in (g, h, g):
            ordering = weak_closure_ordering(x)
            assert ordering == naive_weak_closure_ordering(x)
            assert verify_closure_ordering(x, ordering)


@pytest.fixture
def count_builds(monkeypatch):
    """The graphs whose count table gets built, in order, behind a fresh
    memo of the same kind as the module's."""
    builds = []
    build = closure_module._count_table.__wrapped__

    def counted(g):
        builds.append(g)
        return build(g)

    monkeypatch.setattr(closure_module, "_count_table", last_graph_memo(counted))
    return builds


def split_with_twins(n, seed, twins):
    # a split graph plus false twins of its last low-degree vertices, the
    # shape of the benchmark's split-ds inputs
    g = gen_random_split(n, seed)
    edges = g.edges()
    originals = [v for v in g.vertices() if 2 * g.degree(v) < g.n][-twins:]
    for i, v in enumerate(originals):
        edges += [(w, g.n + i) for w in g.neighbors(v)]
    return Graph(g.n + len(originals), edges)


def test_kernel_ds_builds_counts_for_input_and_final_graph(count_builds, tmp_path):
    g = split_with_twins(80, 1, 4)
    path = tmp_path / "in.ck"
    path.write_text(write_instance(InstanceFile("ds", g, 3)))
    trace = tmp_path / "trace.json"
    assert cli.main(["kernel", "ds", str(path), "--out", str(tmp_path / "out.ck"),
                     "--trace", str(trace)]) == 0
    rules = json.loads(trace.read_text())["rules"]
    assert rules and all(r["rule"] != "sunflower" for r in rules)
    # the parameter report and the first round share the input's table;
    # the last round's sunflower check and the bound report share the
    # final graph's
    assert [b.n for b in count_builds] == [g.n, g.n - len(rules)]


def test_kernel_im_builds_counts_once_per_round(count_builds, tmp_path):
    rng = random.Random(515)
    g = with_twins(random_graph(12, 0.3, rng), rng)
    reduced, trace = kernelize_im(ImInstance(g, 2))
    assert trace and not isinstance(reduced, Decided)
    rounds = len(trace) + 1
    assert len(count_builds) == rounds
    assert len({id(b) for b in count_builds}) == rounds
    # through the CLI the parameter report shares the first round's table
    count_builds.clear()
    path = tmp_path / "in.ck"
    path.write_text(write_instance(InstanceFile("im", g, 2)))
    assert cli.main(["kernel", "im", str(path), "--out", str(tmp_path / "out.ck")]) == 0
    assert len(count_builds) == rounds


def test_vertex_closure_basics():
    c4 = cycle_graph(4)
    assert [vertex_closure(c4, v) for v in range(4)] == [2, 2, 2, 2]
    assert closure_number(c4) == 3
    kn = complete_graph(5)
    # universal vertices have closure 0
    assert all(vertex_closure(kn, v) == 0 for v in range(5))
    assert closure_number(kn) == 1
    assert closure_number(empty_graph(4)) == 1
    assert closure_number(empty_graph(0)) == 1
    with pytest.raises(ValueError):
        vertex_closure(c4, 9)


def test_closure_number_k2n():
    for n in range(2, 6):
        g = complete_bipartite(2, n)
        assert closure_number(g) == n + 1


def test_weak_closure_examples():
    assert weak_closure_ordering(complete_graph(6)).weak_closure == 1
    assert weak_closure_ordering(cycle_graph(4)).weak_closure == 3
    # a star has a universal hub, so peeling the hub first certifies 1
    assert weak_closure_ordering(star_graph(5)).weak_closure == 1
    # two stars glued at their leaves: no universal vertex
    g = Graph(6, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 5)])
    ordering = weak_closure_ordering(g)
    assert verify_closure_ordering(g, ordering)
    assert ordering.weak_closure == exhaustive_weak_closure(g)


def test_weak_closure_k25():
    g = complete_bipartite(2, 5)
    assert closure_number(g) == 6
    assert weak_closure_ordering(g).weak_closure == 3
    assert exhaustive_weak_closure(g) == 3


def test_ordering_certificate_and_ties():
    g = cycle_graph(5)
    o = weak_closure_ordering(g)
    assert sorted(o.order) == list(range(5))
    assert len(o.step_closure) == 5
    assert verify_closure_ordering(g, o)
    # ties break to the smallest id, so reruns are identical
    assert weak_closure_ordering(g) == o


def test_exhaustive_dp_matches_permutations():
    rng = random.Random(7)
    for n in range(1, 6):
        for _ in range(12):
            g = random_graph(n, rng.choice([0.2, 0.5, 0.8]), rng)
            assert exhaustive_weak_closure(g) == brute_weak_closure_by_permutations(g)


def test_greedy_equals_exhaustive_random():
    rng = random.Random(2026)
    for _ in range(150):
        n = rng.randint(1, 8)
        g = random_graph(n, rng.choice([0.15, 0.3, 0.5, 0.7, 0.9]), rng)
        o = weak_closure_ordering(g)
        assert o.weak_closure == exhaustive_weak_closure(g)
        assert verify_closure_ordering(g, o)
        # parameter sandwich
        d, _ = degeneracy(g)
        assert o.weak_closure <= closure_number(g)
        assert o.weak_closure <= d + 1


def test_posterior_intersection_property():
    # nonadjacent u,v: |Q(u) cap N(v)| <= weak_closure - 1
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(2, 8)
        g = random_graph(n, rng.choice([0.3, 0.6]), rng)
        o = weak_closure_ordering(g)
        pos = o.position()
        for u in g.vertices():
            for v in g.vertices():
                if u == v or g.has_edge(u, v):
                    continue
                qu = {w for w in g.adj(u) if pos[w] > pos[u]}
                qv = {w for w in g.adj(v) if pos[w] > pos[v]}
                if pos[u] < pos[v]:
                    assert len(qu & qv) <= len(qu & g.adj(v))
                    assert len(qu & g.adj(v)) <= o.weak_closure - 1


def test_degeneracy_values():
    assert degeneracy(complete_graph(6))[0] == 5
    assert degeneracy(cycle_graph(5))[0] == 2
    assert degeneracy(star_graph(7))[0] == 1
    assert degeneracy(empty_graph(3))[0] == 0
    d, order = degeneracy(path_graph(6))
    assert d == 1 and sorted(order) == list(range(6))


def test_moon_moser():
    assert moon_moser_bound(0) == 1
    assert moon_moser_bound(1) == 3
    assert moon_moser_bound(3) == 3
    assert moon_moser_bound(4) == 9
    assert moon_moser_bound(6) == 9


def test_class_bound_edges():
    assert neighborhood_class_bound(0, 3, 5) == 0
    assert neighborhood_class_bound(1, 1, 1) == 9
    with pytest.raises(ValueError):
        neighborhood_class_bound(-1, 1, 1)


def test_class_bound_dominates_reality():
    # bound with measured max class size must dominate |I|
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(2, 10)
        g = random_graph(n, rng.choice([0.3, 0.5, 0.8]), rng)
        # a smallest cover: the complement of a largest independent set
        alpha = next(a for a in range(n + 1) if not solve_is_exact(g, a + 1).answer)
        cover = frozenset(g.vertices()) - solve_is_exact(g, alpha).witness
        o = weak_closure_ordering(g)
        n_classes = Counter(g.adj(v) for v in g.vertices() if v not in cover)
        size_i = g.n - len(cover)
        if size_i == 0 or len(cover) == 0:
            # the explicit formula is 0 for an empty cover by construction
            continue
        bound = neighborhood_class_bound(len(cover), o.weak_closure, max(n_classes.values()))
        assert size_i <= bound
        assert len(n_classes) <= neighborhood_class_bound(len(cover), o.weak_closure, 1)
