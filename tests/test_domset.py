import itertools
import math
import random
from collections import Counter

import pytest

from closurekernels.closure import ClosureEngine, ClosureOrdering, weak_closure_ordering
from closurekernels.domset import (
    DsInstance,
    GoodOrderingError,
    SplitPartition,
    biclique_freeness_report,
    covers_clique_rule,
    dominated_clique_vertex_rule,
    dominated_independent_vertex_rule,
    good_ordering,
    is_split,
    isolated_rule,
    kernelize_ds_split,
    split_partition,
    sunflower_rule,
    trimmed_neighborhoods,
)
from closurekernels.generators import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from closurekernels.graph import Graph, clique_number, is_clique, is_independent_set
from closurekernels.oracles import is_dominating_set, solve_ds_exact
from closurekernels.reduction import Decided
from closurekernels.suites.parameter_engines import _suffix_closures


def random_split_graph(rng, max_n=10):
    n = rng.randint(1, max_n)
    a = rng.randint(0, n)
    edges = list(itertools.combinations(range(a), 2))
    p = rng.random()
    for u in range(a):
        for v in range(a, n):
            if rng.random() < p:
                edges.append((u, v))
    return Graph(n, edges)


def brute_is_split(g):
    vs = set(g.vertices())
    for r in range(g.n + 1):
        for s in itertools.combinations(sorted(vs), r):
            if is_clique(g, s) and is_independent_set(g, vs - set(s)):
                return True
    return False


def test_split_detection_frozen():
    assert is_split(path_graph(4))
    assert not is_split(cycle_graph(4))
    assert not is_split(cycle_graph(5))
    assert not is_split(Graph(4, [(0, 1), (2, 3)]))
    assert not is_split(path_graph(5))
    assert split_partition(complete_graph(4)) == SplitPartition((0, 1, 2, 3), ())
    assert split_partition(star_graph(5)) == SplitPartition((0, 1), (2, 3, 4, 5))
    assert split_partition(Graph(0, [])) == SplitPartition((), ())
    assert split_partition(Graph(3, [])) == SplitPartition((0,), (1, 2))
    with pytest.raises(ValueError):
        split_partition(cycle_graph(5))


def test_split_detection_matches_brute_force():
    rng = random.Random(103)
    for _ in range(300):
        n = rng.randint(1, 7)
        p = rng.random()
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        g = Graph(n, edges)
        assert is_split(g) == brute_is_split(g)


def test_split_partition_clique_side_is_maximum():
    rng = random.Random(107)
    for _ in range(150):
        g = random_split_graph(rng)
        part = split_partition(g)
        assert is_clique(g, part.clique)
        assert is_independent_set(g, part.independent)
        assert len(part.clique) == clique_number(g)


def test_good_ordering_certifies_and_orders_clique_first():
    rng = random.Random(109)
    for _ in range(150):
        g = random_split_graph(rng)
        part = split_partition(g)
        ordering = good_ordering(g, part)
        assert ordering.weak_closure == weak_closure_ordering(g).weak_closure
        pos = ordering.position()
        if part.clique and part.independent:
            assert max(pos[v] for v in part.clique) < min(pos[v] for v in part.independent)


def test_good_ordering_certificate_matches_suffix_recompute():
    rng = random.Random(131)
    for _ in range(80):
        g = random_split_graph(rng, max_n=30)
        ordering = good_ordering(g, split_partition(g))
        assert ordering.step_closure == _suffix_closures(g, ordering.order)
        assert ordering.weak_closure == 1 + max(ordering.step_closure, default=0)


def engine_good_ordering(g, part):
    # the engine-built ordering good_ordering replaced: a ClosureEngine reads
    # the front's clique closures, and the certificate is recomputed suffix
    # by suffix
    gamma = weak_closure_ordering(g).weak_closure
    cset = set(part.clique)
    iset = set(part.independent)
    engine = ClosureEngine(g)
    deg = {v: g.degree(v) for v in g.vertices()}
    front, back = [], []
    while deg:
        if max(deg.values()) <= gamma - 1:
            front += sorted(cset & deg.keys()) + sorted(iset & deg.keys())
            break
        if min(deg.values()) >= gamma:
            v = min((v for v in cset & deg.keys() if engine.closure[v] < gamma), default=None)
            if v is None:
                raise GoodOrderingError("no low-closure clique vertex available")
            front.append(v)
        else:
            v = min((v for v in iset & deg.keys() if deg[v] <= gamma - 1), default=None)
            if v is None:
                raise GoodOrderingError("no low-degree independent vertex available")
            back.append(v)
        engine.remove(v)
        del deg[v]
        for w in g.adj(v) & deg.keys():
            deg[w] -= 1
    order = tuple(front + back[::-1])
    steps = _suffix_closures(g, order)
    ordering = ClosureOrdering(order, steps, 1 + max(steps, default=0))
    if ordering.weak_closure != gamma:
        raise GoodOrderingError("constructed ordering does not certify the weak closure")
    pos = ordering.position()
    if part.clique and part.independent:
        if max(pos[v] for v in part.clique) > min(pos[v] for v in part.independent):
            raise GoodOrderingError("clique vertices must all come first")
    return ordering


def ordering_or_error(build, g, part):
    try:
        return build(g, part)
    except GoodOrderingError as exc:
        return str(exc)


def split_with_false_twins(rng, n, p, twins):
    # a clique on the first a vertices, crossings with probability p, and
    # copies of independent vertices with the same neighborhood
    a = rng.randint(1, n - 1)
    edges = list(itertools.combinations(range(a), 2))
    edges += [(u, v) for u in range(a) for v in range(a, n) if rng.random() < p]
    g = Graph(n, edges)
    for i, v in enumerate(rng.sample(range(a, n), min(twins, n - a))):
        edges += [(u, n + i) for u in g.neighbors(v)]
    return Graph(n + min(twins, n - a), edges)


def noncanonical_partitions(g, part):
    # the clique side minus one clique vertex with no independent neighbor
    # is still a split partition, just not the degree-sequence one
    iset = set(part.independent)
    for v in part.clique:
        if not g.adj(v) & iset:
            yield SplitPartition(tuple(u for u in part.clique if u != v),
                                 tuple(sorted(iset | {v})))


def test_good_ordering_matches_engine_built_ordering():
    rng = random.Random(167)
    cases = [(complete_graph(3), SplitPartition((0, 1), (2,)))]
    for density in (0.2, 0.4, 0.7):
        for _ in range(100):
            g = split_with_false_twins(rng, rng.randint(2, 36), density, rng.choice((0, 0, 2, 4)))
            part = split_partition(g)
            cases.append((g, part))
            cases += [(g, other) for other in noncanonical_partitions(g, part)]
    # arbitrary partitions of arbitrary graphs, where the construction can fail
    for _ in range(100):
        n = rng.randint(2, 12)
        g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5])
        vs = rng.sample(range(n), n)
        a = rng.randint(0, n)
        cases.append((g, SplitPartition(tuple(sorted(vs[:a])), tuple(sorted(vs[a:])))))
    outcomes = Counter()
    for g, part in cases:
        got = ordering_or_error(good_ordering, g, part)
        assert got == ordering_or_error(engine_good_ordering, g, part)
        if isinstance(got, str):
            outcomes[got] += 1
            continue
        outcomes["ordering"] += 1
        assert got.step_closure == _suffix_closures(g, got.order)
    assert outcomes["ordering"] >= 300
    assert all(outcomes[message] for message in (
        "no low-closure clique vertex available",
        "no low-degree independent vertex available",
        "constructed ordering does not certify the weak closure"))


def test_trimmed_neighborhoods_star():
    g = star_graph(4)
    part = split_partition(g)
    assert part == SplitPartition((0, 1), (2, 3, 4))
    ordering = good_ordering(g, part)
    trimmed = trimmed_neighborhoods(g, part, ordering)
    assert trimmed == {2: (1, frozenset()), 3: (1, frozenset()), 4: (1, frozenset())}


def test_trimmed_neighborhoods_rejects_full_cover():
    g = complete_graph(3)
    part = SplitPartition((0, 1), (2,))
    ordering = good_ordering(g, part)
    with pytest.raises(ValueError):
        trimmed_neighborhoods(g, part, ordering)


def test_trimmed_neighborhoods_properties():
    rng = random.Random(113)
    checked = 0
    for _ in range(150):
        g = random_split_graph(rng)
        part = split_partition(g)
        ordering = good_ordering(g, part)
        pos = ordering.position()
        cseq = sorted(part.clique, key=lambda v: pos[v])
        full = frozenset(part.clique)
        if any(g.adj(u) == full for u in part.independent):
            continue
        trimmed = trimmed_neighborhoods(g, part, ordering)
        for u, (s, rest) in trimmed.items():
            prefix = set(cseq[:s])
            assert prefix <= g.adj(u)
            assert cseq[s] not in g.adj(u)
            assert rest == g.adj(u) - prefix
            assert len(rest) <= ordering.weak_closure - 1
            checked += 1
    assert checked >= 50


def test_isolated_rule():
    g = Graph(4, [(0, 1)])
    out, entry = isolated_rule(DsInstance(g, 1))
    assert isinstance(out, Decided) and out.answer is False
    assert entry["isolated"] == [2, 3]

    out, entry = isolated_rule(DsInstance(g, 2))
    assert out.graph.n == 2 and out.k == 0
    assert entry == {"rule": "isolated", "removed": [2, 3], "budget_spent": 2}

    out, entry = isolated_rule(DsInstance(path_graph(3), 2))
    assert entry is None and out.graph.n == 3


def test_covers_clique_fires_only_with_nonmaximal_clique_side():
    rng = random.Random(127)
    for _ in range(150):
        g = random_split_graph(rng)
        _, entry = covers_clique_rule(DsInstance(g, 1))
        assert entry is None


def test_dominated_clique_vertex_rule():
    out, entry = dominated_clique_vertex_rule(DsInstance(complete_graph(4), 1))
    assert entry == {"rule": "dominated-clique-vertex", "removed": 1, "dominator": 0}
    assert out.graph.n == 3

    out, entry = dominated_clique_vertex_rule(DsInstance(star_graph(4), 0))
    assert entry["removed"] == 1 and entry["dominator"] == 0
    assert out.graph.n == 4 and out.graph.degree(0) == 3

    _, entry = dominated_clique_vertex_rule(DsInstance(path_graph(4), 1))
    assert entry is None


def test_dominated_clique_vertex_oracle_equivalence():
    rng = random.Random(131)
    fired = 0
    for _ in range(200):
        g = random_split_graph(rng, max_n=9)
        k = rng.randint(0, 3)
        out, entry = dominated_clique_vertex_rule(DsInstance(g, k))
        if entry is None:
            continue
        fired += 1
        before = solve_ds_exact(g, k, max_n=12).answer
        after = solve_ds_exact(out.graph, out.k, max_n=12).answer
        assert before == after
    assert fired >= 60


def double_star():
    # clique {0,1}; one independent vertex on 0, three on 1
    return Graph(6, [(0, 1), (0, 2), (1, 3), (1, 4), (1, 5)])


def test_dominated_independent_vertex_rule():
    g = double_star()
    out, entry = dominated_independent_vertex_rule(DsInstance(g, 2))
    assert entry == {"rule": "dominated-independent-vertex", "removed": 4, "witness": 3}
    assert out.graph.n == 5

    _, entry = dominated_independent_vertex_rule(DsInstance(path_graph(4), 1))
    assert entry is None

    with pytest.raises(ValueError):
        dominated_independent_vertex_rule(DsInstance(Graph(3, [(0, 1)]), 1))


def test_dominated_independent_vertex_oracle_equivalence():
    rng = random.Random(163)
    fired = 0
    for _ in range(500):
        g = random_split_graph(rng, max_n=9)
        if any(g.degree(v) == 0 for v in g.vertices()):
            continue
        k = rng.randint(0, 3)
        out, entry = dominated_independent_vertex_rule(DsInstance(g, k))
        if entry is None:
            continue
        fired += 1
        before = solve_ds_exact(g, k, max_n=12).answer
        after = solve_ds_exact(out.graph, out.k, max_n=12).answer
        assert before == after
    assert fired >= 40


def test_sunflower_rule_star():
    out, entry = sunflower_rule(DsInstance(star_graph(4), 0))
    assert entry["rule"] == "sunflower"
    assert entry["removed"] == 3
    assert entry["group"] == [2, 3]
    assert entry["core"] == []
    assert out.graph.n == 4

    out, entry = sunflower_rule(DsInstance(star_graph(5), 1))
    assert entry["removed"] == 4 and entry["group"] == [2, 3, 4]


def test_sunflower_rule_identical_sets():
    # trimmed sets are [none, {1}, {1}, {1}]: the three equal ones make a
    # sunflower with full core and empty petals
    out, entry = sunflower_rule(DsInstance(double_star(), 1))
    assert entry["removed"] == 5
    assert entry["group"] == [3, 4, 5]
    assert entry["core"] == [1]
    assert out.graph.n == 5


def test_sunflower_rule_disjoint_singletons():
    g = Graph(7, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                  (4, 1), (5, 2), (6, 3)])
    out, entry = sunflower_rule(DsInstance(g, 1))
    assert entry["removed"] == 6
    assert entry["group"] == [4, 5, 6]
    assert entry["core"] == []


def test_sunflower_rule_path():
    g = path_graph(4)
    out, entry = sunflower_rule(DsInstance(g, 0))
    assert entry["removed"] == 0 and entry["group"] == [0, 3]
    assert out.graph.n == 3

    _, entry = sunflower_rule(DsInstance(g, 1))
    assert entry is None


def test_sunflower_rule_oracle_equivalence():
    rng = random.Random(137)
    fired = 0
    for _ in range(200):
        g = random_split_graph(rng, max_n=9)
        k = rng.randint(0, 2)
        part = split_partition(g)
        if any(g.adj(u) == frozenset(part.clique) for u in part.independent):
            continue
        out, entry = sunflower_rule(DsInstance(g, k))
        if entry is None:
            continue
        fired += 1
        before = solve_ds_exact(g, k, max_n=12).answer
        after = solve_ds_exact(out.graph, out.k, max_n=12).answer
        assert before == after
    assert fired >= 40


def test_kernelize_complete_graph():
    out, trace = kernelize_ds_split(DsInstance(complete_graph(5), 1))
    assert [e["rule"] for e in trace] == ["dominated-clique-vertex"] * 4 + ["isolated"]
    assert out.graph.n == 0 and out.k == 0

    out, trace = kernelize_ds_split(DsInstance(complete_graph(5), 0))
    assert isinstance(out, Decided) and out.answer is False


def test_kernelize_star_chain():
    out, trace = kernelize_ds_split(DsInstance(star_graph(4), 1))
    assert [e["rule"] for e in trace] == ["dominated-clique-vertex"] * 4 + ["isolated"]
    assert out.graph.n == 0 and out.k == 0


def test_kernelize_rejects_non_split():
    with pytest.raises(ValueError):
        kernelize_ds_split(DsInstance(cycle_graph(4), 1))


def test_kernelize_all_isolated_no():
    out, trace = kernelize_ds_split(DsInstance(Graph(4, []), 2))
    assert isinstance(out, Decided) and out.answer is False
    assert trace[0]["rule"] == "isolated"


def test_kernelize_double_star_regression():
    # Without the independent-side containment rule this is a fixpoint with
    # four independent vertices at k=2 and weak closure 2, breaking the
    # strict size bound: the trimmed family [none, {1}, {1}, {1}] contains
    # no 4-sunflower even though it has 4 members.
    out, trace = kernelize_ds_split(DsInstance(double_star(), 2))
    assert [e["rule"] for e in trace] == ["dominated-independent-vertex"] * 2
    assert out.graph.n == 4 and out.k == 2
    part = split_partition(out.graph)
    assert len(part.independent) == 2


def test_kernelize_sunflower_fires_on_large_independent_side():
    g = Graph(7, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                  (4, 1), (5, 2), (6, 3)])
    _, trace = kernelize_ds_split(DsInstance(g, 1))
    assert any(e["rule"] == "sunflower" for e in trace)


def test_clique_side_solution_always_exists():
    rng = random.Random(167)
    checked = 0
    for _ in range(250):
        g = random_split_graph(rng, max_n=9)
        if g.n == 0 or any(g.degree(v) == 0 for v in g.vertices()):
            continue
        k = rng.randint(0, 3)
        if not solve_ds_exact(g, k, max_n=12).answer:
            continue
        part = split_partition(g)
        assert any(is_dominating_set(g, s) for size in range(k + 1)
                   for s in itertools.combinations(part.clique, size))
        checked += 1
    assert checked >= 60


def test_kernelize_oracle_equivalence():
    rng = random.Random(139)
    fired = 0
    for _ in range(200):
        g = random_split_graph(rng, max_n=9)
        k = rng.randint(0, 3)
        out, trace = kernelize_ds_split(DsInstance(g, k))
        fired += len(trace)
        before = solve_ds_exact(g, k, max_n=12).answer
        if isinstance(out, Decided):
            assert out.answer == before
        else:
            after = solve_ds_exact(out.graph, out.k, max_n=12).answer
            assert before == after
    assert fired >= 100


def test_kernelize_fixpoint_bounds():
    rng = random.Random(149)
    measured = 0
    for _ in range(200):
        g = random_split_graph(rng, max_n=10)
        k = rng.randint(0, 3)
        out, _ = kernelize_ds_split(DsInstance(g, k))
        if isinstance(out, Decided):
            continue
        part = split_partition(out.graph)
        wc = weak_closure_ordering(out.graph).weak_closure
        assert len(part.independent) < math.factorial(wc - 1) * (out.k + 2) ** (wc - 1)
        assert len(part.clique) <= (wc - 1) * len(part.independent) + 1
        measured += 1
    assert measured >= 40


def test_independent_neighborhoods_antichain_at_fixpoint():
    rng = random.Random(173)
    for _ in range(120):
        g = random_split_graph(rng, max_n=9)
        out, _ = kernelize_ds_split(DsInstance(g, rng.randint(0, 3)))
        if isinstance(out, Decided):
            continue
        part = split_partition(out.graph)
        for u in part.independent:
            for v in part.independent:
                if u != v:
                    assert not out.graph.adj(u) <= out.graph.adj(v) or \
                        not out.graph.adj(v) <= out.graph.adj(u)


def test_kernelize_deterministic():
    rng = random.Random(151)
    for _ in range(60):
        g = random_split_graph(rng, max_n=9)
        k = rng.randint(0, 3)
        out1, trace1 = kernelize_ds_split(DsInstance(g, k))
        out2, trace2 = kernelize_ds_split(DsInstance(g, k))
        assert out1 == out2 and trace1 == trace2


def test_biclique_freeness_report():
    rep = biclique_freeness_report(complete_bipartite(3, 3))
    assert rep["weak_closure"] == 4
    assert rep["clique_number"] == 2
    assert rep["rho"] == 7
    assert rep["consistent"] is True and rep["biclique"] is None

    rep = biclique_freeness_report(complete_graph(6))
    assert (rep["weak_closure"], rep["clique_number"], rep["rho"]) == (1, 6, 8)
    assert rep["consistent"] is True


def test_biclique_freeness_random_sweep():
    rng = random.Random(157)
    for _ in range(120):
        n = rng.randint(1, 11)
        p = rng.random()
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        rep = biclique_freeness_report(Graph(n, edges))
        assert rep["consistent"] is True
