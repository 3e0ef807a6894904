"""Oracle sanity on hand-computed micro-instances plus cross-validation."""
import random
import time
from itertools import combinations, product

import pytest

from closurekernels.capvc import CapVcInstance
from closurekernels.convc import AnnotatedConVcInstance, CocInstance, ConVcInstance
from closurekernels.domset import DsInstance
from closurekernels.generators import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    gen_capvc_lowerbound,
    path_graph,
    star_graph,
)
from closurekernels.graph import Graph
from closurekernels.induced_matching import ImInstance
from closurekernels import oracles as oracles_mod
from closurekernels.oracles import (
    OracleCapExceeded,
    OracleResult,
    capvc_assignment_feasible,
    coc_components_ok,
    is_connected_set,
    is_dominating_set,
    is_induced_matching,
    is_solution,
    is_vertex_cover,
    solve_capvc_exact,
    solve_coc_exact,
    solve_convc_exact,
    solve_ds_exact,
    solve_exact,
    solve_exact_set_cover,
    solve_im_exact,
    solve_is_exact,
    solve_multicolored_is_exact,
)
from closurekernels.reduction import IsInstance


def random_graph(n, p, rng):
    return Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])


# --- capacitated vertex cover ------------------------------------------------

def test_capvc_single_edge():
    g = path_graph(2)
    assert solve_capvc_exact(g, (1, 1), 1).answer
    assert solve_capvc_exact(g, (0, 0), 2).answer is False
    assert solve_capvc_exact(g, (0, 1), 1).answer


def test_capvc_triangle_needs_extra_capacity():
    # caps 1 each: any 2-vertex cover has capacity 2 < 3 edges,
    # but all three vertices together work
    g = complete_graph(3)
    assert solve_capvc_exact(g, (1, 1, 1), 2).answer is False
    res = solve_capvc_exact(g, (1, 1, 1), 3)
    assert res.answer and res.witness == frozenset({0, 1, 2})


def test_capvc_star():
    g = star_graph(4)
    # hub capacity 4 suffices alone
    assert solve_capvc_exact(g, (4, 0, 0, 0, 0), 1).answer
    assert solve_capvc_exact(g, (3, 0, 0, 0, 0), 1).answer is False
    # hub 3 plus one leaf taking its own edge
    assert solve_capvc_exact(g, (3, 1, 0, 0, 0), 2).answer


def test_capvc_negative_capacity():
    g = path_graph(2)
    # a negative-capacity vertex cannot take any edge
    assert solve_capvc_exact(g, (-1, 1), 2).answer
    assert solve_capvc_exact(g, (-1, 0), 2).answer is False


def test_capvc_matches_plain_vc_with_big_caps():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 7)
        g = random_graph(n, 0.4, rng)
        caps = tuple([n * n] * n)
        # a smallest cover is the complement of a largest independent set
        alpha = next(a for a in range(n + 1) if not solve_is_exact(g, a + 1).answer)
        k = n - alpha
        assert solve_capvc_exact(g, caps, k).answer
        if k > 0:
            assert solve_capvc_exact(g, caps, k - 1).answer is False


def test_capvc_feasibility_checker():
    g = cycle_graph(4)
    assert capvc_assignment_feasible(g, frozenset({0, 2}), (2, 0, 2, 0))
    assert not capvc_assignment_feasible(g, frozenset({0, 2}), (2, 0, 1, 0))
    assert not capvc_assignment_feasible(g, frozenset({0}), (4, 4, 4, 4))


# --- connected vertex cover --------------------------------------------------

def test_convc_c4():
    g = cycle_graph(4)
    assert solve_convc_exact(g, 2).answer is False
    res = solve_convc_exact(g, 3)
    assert res.answer and len(res.witness) == 3


def test_convc_path():
    g = path_graph(5)
    res = solve_convc_exact(g, 3)
    assert res.answer and res.witness == frozenset({1, 2, 3})
    assert solve_convc_exact(g, 2).answer is False


def test_convc_annotated_required():
    g = path_graph(3)
    assert solve_convc_exact(g, 1).answer  # {1}
    assert solve_convc_exact(g, 1, required=frozenset({0})).answer is False
    assert solve_convc_exact(g, 2, required=frozenset({0})).answer


def test_convc_edgeless():
    assert solve_convc_exact(Graph(3), 0).answer


# --- independent set ---------------------------------------------------------

def test_is_oracle():
    assert solve_is_exact(cycle_graph(5), 2).answer
    assert solve_is_exact(cycle_graph(5), 3).answer is False
    assert solve_is_exact(complete_graph(4), 2).answer is False
    assert solve_is_exact(Graph(4), 4).answer
    assert solve_is_exact(complete_graph(3), 0).answer


# --- induced matching --------------------------------------------------------

def test_im_c4():
    g = cycle_graph(4)
    assert solve_im_exact(g, 1).answer
    assert solve_im_exact(g, 2).answer is False


def test_im_two_disjoint_edges():
    g = Graph(4, [(0, 1), (2, 3)])
    res = solve_im_exact(g, 2)
    assert res.answer and res.witness == frozenset({(0, 1), (2, 3)})


def test_im_path5():
    # P5 edges (0,1),(1,2),(2,3),(3,4): (0,1)+(3,4) is induced
    assert solve_im_exact(path_graph(5), 2).answer
    assert solve_im_exact(path_graph(4), 2).answer is False


def test_is_induced_matching_validator():
    g = path_graph(4)
    assert is_induced_matching(g, [(0, 1)])
    assert not is_induced_matching(g, [(0, 1), (2, 3)])  # 1-2 edge crosses
    assert not is_induced_matching(g, [(0, 2)])  # not an edge
    assert is_induced_matching(g, [])



def pairwise_is_induced_matching(g, edges):
    """`is_induced_matching` as it was before it read neighbourhoods: every
    pair of witness edges, four adjacency tests each."""
    es = [tuple(sorted(e)) for e in edges]
    verts = set()
    for u, v in es:
        if not g.has_edge(u, v) or u in verts or v in verts:
            return False
        verts.update((u, v))
    return not any(g.has_edge(a, c) or g.has_edge(a, d) or g.has_edge(b, c) or g.has_edge(b, d)
                   for (a, b), (c, d) in combinations(es, 2))


def test_is_induced_matching_matches_the_pairwise_check():
    rng = random.Random(73)
    verdicts = set()
    for _ in range(3000):
        n = rng.randint(0, 12)
        p = rng.choice([0.1, 0.25, 0.5])
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        edges = g.edges()
        # a subset of the edges (a matching or not), sometimes with a
        # non-edge, a repeated edge or a reversed pair mixed in
        chosen = rng.sample(edges, rng.randint(0, min(4, len(edges))))
        extra = rng.random()
        if n >= 2 and extra < 0.2:
            chosen.append(tuple(rng.sample(range(n), 2)))
        elif chosen and extra < 0.3:
            chosen.append(chosen[0])
        elif chosen and extra < 0.4:
            chosen[0] = chosen[0][::-1]
        want = pairwise_is_induced_matching(g, chosen)
        assert is_induced_matching(g, chosen) == want, (g.edges(), chosen)
        verdicts.add(want)
    assert verdicts == {True, False}


def test_is_induced_matching_is_linear_on_a_perfect_matching():
    # 1,100 disjoint edges: the pairwise check made 604,450 pair tests
    g = Graph(2200, [(2 * i, 2 * i + 1) for i in range(1100)])
    witness = frozenset(g.edges())
    start = time.perf_counter()
    assert is_induced_matching(g, witness)
    assert time.perf_counter() - start < 0.05
    # one edge joining two of them: the witness is a matching, not induced
    assert not is_induced_matching(Graph(2200, g.edges() + [(1, 2)]), witness)

# --- dominating set ----------------------------------------------------------

def test_ds_oracle():
    assert solve_ds_exact(star_graph(5), 1).answer
    assert solve_ds_exact(complete_graph(4), 1).answer
    assert solve_ds_exact(cycle_graph(6), 2).answer
    assert solve_ds_exact(cycle_graph(6), 1).answer is False
    assert solve_ds_exact(Graph(3), 2).answer is False
    assert solve_ds_exact(Graph(3), 3).answer


def test_ds_forbidden():
    g = star_graph(3)
    assert solve_ds_exact(g, 1).answer
    assert is_dominating_set(g, [0])


# --- component order connectivity --------------------------------------------

def test_coc_oracle():
    g = path_graph(5)
    # deleting the middle vertex leaves two P2s
    res = solve_coc_exact(g, 2, 1)
    assert res.answer and res.witness == frozenset({2})
    # ell=1 turns the deletion set into a connected vertex cover
    assert solve_coc_exact(g, 1, 3).answer
    assert solve_coc_exact(g, 1, 2).answer is False
    assert coc_components_ok(g, frozenset({2}), 2)
    assert not coc_components_ok(g, frozenset(), 4)
    with pytest.raises(ValueError):
        solve_coc_exact(g, 0, 1)


def test_coc_connected_deletion_required():
    # star of three P3 arms: deleting the two arm-midpoints is disconnected
    g = Graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    # ell=2: delete hub -> arms are P2s
    assert solve_coc_exact(g, 2, 1).answer
    # ell=1: must break every edge; any connected pair cannot do it
    assert solve_coc_exact(g, 1, 2).answer is False


def test_coc_empty_solution():
    g = Graph(4, [(0, 1), (2, 3)])
    assert solve_coc_exact(g, 2, 0).answer


# --- multicolored independent set --------------------------------------------

def test_multicolored_is():
    # two cliques {0,1} and {2,3}, edges 0-2 only: pick 1,2 or 0,3 or 1,3
    g = Graph(4, [(0, 1), (2, 3), (0, 2)])
    res = solve_multicolored_is_exact(g, [(0, 1), (2, 3)])
    assert res.answer
    g2 = Graph(4, [(0, 1), (2, 3), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert solve_multicolored_is_exact(g2, [(0, 1), (2, 3)]).answer is False
    with pytest.raises(ValueError):
        solve_multicolored_is_exact(g, [(0, 1), (2,)])
    with pytest.raises(ValueError):
        solve_multicolored_is_exact(Graph(2), [(0, 1)])  # not a clique


# --- exact set cover ---------------------------------------------------------

def test_exact_set_cover():
    fam = [frozenset({0, 1, 2}), frozenset({3, 4, 5}), frozenset({0, 3, 4})]
    res = solve_exact_set_cover(6, fam, 3, 2)
    assert res.answer and res.witness == (0, 1)
    assert solve_exact_set_cover(6, [fam[0], fam[2]], 3, 2).answer is False
    with pytest.raises(ValueError):
        solve_exact_set_cover(5, fam, 3, 2)
    with pytest.raises(ValueError):
        solve_exact_set_cover(6, [frozenset({0, 1})], 3, 2)


# --- shared behaviour --------------------------------------------------------

def test_size_cap():
    big = Graph(20)
    with pytest.raises(OracleCapExceeded):
        solve_is_exact(big, 2)
    assert solve_is_exact(big, 2, max_n=25).answer


def test_monotone_in_k():
    rng = random.Random(17)
    for _ in range(25):
        g = random_graph(rng.randint(2, 7), 0.5, rng)
        prev = False
        for k in range(0, g.n + 1):
            cur = solve_convc_exact(g, k).answer
            assert not (prev and not cur)
            prev = cur


def test_witnesses_validate():
    rng = random.Random(8)
    for _ in range(30):
        g = random_graph(rng.randint(2, 7), 0.45, rng)
        k = rng.randint(0, 4)
        r = solve_ds_exact(g, k)
        if r.answer:
            assert is_dominating_set(g, r.witness)
            assert len(r.witness) <= k
        r2 = solve_im_exact(g, k)
        if r2.answer:
            assert is_induced_matching(g, r2.witness)


# --- the shared searches against the oracles they replaced -------------------
# Written as the oracles were before `_smallest_set` and the clique search
# (`_compatible_set`, now `cliquesearch.first_clique`): one loop or one recursion
# per problem. Each rewritten oracle must return the same answer, witness
# and work counters; multicolored independent set and exact set cover
# renamed their counter from `combinations` to `nodes` and now count search
# nodes, so for them only answer and witness are compared.

def ref_capvc(g, cap, k):
    if k < 0:
        return OracleResult(False, stats={"feasibility_checks": 0})
    edges = g.edges()
    checks = 0
    seen_covers = set()

    def branch(chosen, start):
        nonlocal checks
        uncovered = None
        i = start
        while i < len(edges):
            u, v = edges[i]
            if u not in chosen and v not in chosen:
                uncovered = (u, v)
                break
            i += 1
        if uncovered is None:
            base = frozenset(chosen)
            if base in seen_covers:
                return None
            seen_covers.add(base)
            pool = [v for v in g.vertices() if v not in base and cap[v] >= 1 and g.adj(v)]
            for add in combinations(pool, min(k - len(base), len(pool))):
                checks += 1
                s = base | frozenset(add)
                if ref_feasible(g, s, cap):
                    return s
            return None
        if len(chosen) >= k:
            return None
        for w in uncovered:
            chosen.add(w)
            got = branch(chosen, i + 1)
            chosen.remove(w)
            if got is not None:
                return got
        return None

    witness = branch(set(), 0)
    if witness is not None:
        return OracleResult(True, witness, {"feasibility_checks": checks})
    return OracleResult(False, stats={"feasibility_checks": checks})


def ref_feasible(g, cover, cap):
    if not all(u in cover or v in cover for u, v in g.edges()):
        return False
    edges = g.edges()
    cov = sorted(cover)
    idx = {v: i for i, v in enumerate(cov)}
    remaining = [max(cap[v], 0) for v in cov]
    assigned = [None] * len(edges)

    def reroute(e, seen_v):
        for w in edges[e]:
            if w not in idx:
                continue
            wi = idx[w]
            if wi == assigned[e] or wi in seen_v:
                continue
            seen_v.add(wi)
            if remaining[wi] > 0:
                remaining[wi] -= 1
                assigned[e] = wi
                return True
            for e2, a in enumerate(assigned):
                if a == wi and reroute(e2, seen_v):
                    assigned[e] = wi
                    return True
        return False

    return all(reroute(e, set()) for e in range(len(edges)))


def ref_convc(g, k, required=frozenset()):
    if k < 0:
        return OracleResult(False, stats={"subsets": 0})
    verts = list(g.vertices())
    count = 0
    for size in range(k + 1):
        for s in combinations(verts, size):
            count += 1
            ss = frozenset(s)
            if not required <= ss:
                continue
            if is_vertex_cover(g, ss) and is_connected_set(g, ss):
                return OracleResult(True, ss, {"subsets": count})
    return OracleResult(False, stats={"subsets": count})


def ref_ds(g, k):
    if k < 0:
        return OracleResult(False, stats={"subsets": 0})
    count = 0
    for size in range(k + 1):
        for s in combinations(g.vertices(), size):
            count += 1
            ss = frozenset(s)
            if is_dominating_set(g, ss):
                return OracleResult(True, ss, {"subsets": count})
    return OracleResult(False, stats={"subsets": count})


def ref_coc(g, ell, k):
    if k < 0:
        return OracleResult(False, stats={"subsets": 0})
    verts = list(g.vertices())
    count = 0
    for size in range(k + 1):
        for s in combinations(verts, size):
            count += 1
            ss = frozenset(s)
            if is_connected_set(g, ss) and coc_components_ok(g, ss, ell):
                return OracleResult(True, ss, {"subsets": count})
    return OracleResult(False, stats={"subsets": count})


def ref_is(g, k):
    if k <= 0:
        return OracleResult(True, frozenset(), {"nodes": 0})
    nodes = 0

    def branch(start, chosen):
        nonlocal nodes
        nodes += 1
        if len(chosen) >= k:
            return frozenset(chosen)
        if len(chosen) + (g.n - start) < k:
            return None
        for v in range(start, g.n):
            if all(not g.has_edge(v, u) for u in chosen):
                got = branch(v + 1, chosen + [v])
                if got is not None:
                    return got
        return None

    best = branch(0, [])
    if best is not None:
        return OracleResult(True, best, {"nodes": nodes})
    return OracleResult(False, stats={"nodes": nodes})


def ref_im(g, k):
    if k <= 0:
        return OracleResult(True, frozenset(), {"nodes": 0})
    edges = g.edges()
    nodes = 0

    def conflict(e, f):
        a, b = e
        c, d = f
        return len({a, b, c, d}) < 4 or g.has_edge(a, c) or g.has_edge(a, d) \
            or g.has_edge(b, c) or g.has_edge(b, d)

    def branch(start, chosen):
        nonlocal nodes
        nodes += 1
        if len(chosen) >= k:
            return frozenset(chosen)
        if len(chosen) + (len(edges) - start) < k:
            return None
        for i in range(start, len(edges)):
            e = edges[i]
            if all(not conflict(e, f) for f in chosen):
                got = branch(i + 1, chosen + [e])
                if got is not None:
                    return got
        return None

    got = branch(0, [])
    if got is not None:
        return OracleResult(True, got, {"nodes": nodes})
    return OracleResult(False, stats={"nodes": nodes})


def ref_multicolored_is(g, parts):
    for pick in product(*[sorted(p) for p in parts]):
        if all(not g.has_edge(u, v) for u, v in combinations(pick, 2)):
            return OracleResult(True, tuple(pick))
    return OracleResult(False)


def ref_set_cover(universe_size, family, k):
    for pick in combinations(range(len(family)), k):
        union = set()
        ok = True
        for i in pick:
            if family[i] & union:
                ok = False
                break
            union |= family[i]
        if ok and len(union) == universe_size:
            return OracleResult(True, tuple(pick))
    return OracleResult(False)


def seeded_instances(seed, count, max_n):
    # k runs from -1 to n + 1, so k < 0, k = 0 and k > n all occur
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(0, max_n)
        g = random_graph(n, rng.choice((0.15, 0.3, 0.5, 0.8)), rng)
        yield rng, g, rng.randint(-1, n + 1)


def same_result(got, want):
    return (got.answer, got.witness, got.stats) == (want.answer, want.witness, want.stats)


def test_is_matches_the_recursive_search():
    for _, g, k in seeded_instances(401, 3000, 11):
        assert same_result(solve_is_exact(g, k), ref_is(g, k)), (g.edges(), k)


def test_im_matches_the_recursive_search():
    for _, g, k in seeded_instances(402, 3000, 10):
        k = min(k, 6)  # an induced matching on 10 vertices has at most 5 edges
        assert same_result(solve_im_exact(g, k), ref_im(g, k)), (g.edges(), k)


def test_multicolored_is_matches_the_product_loop():
    # clique parts in shuffled order, each part's vertices unsorted, now and
    # then an empty part; cross edges at several densities
    rng = random.Random(409)
    answers = set()
    for _ in range(3000):
        n = rng.randint(0, 10)
        verts = list(range(n))
        rng.shuffle(verts)
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1))) if n > 1 else []
        parts = [tuple(verts[a:b]) for a, b in zip([0] + cuts, cuts + [n])] if n else []
        if rng.random() < 0.05:
            parts.insert(rng.randint(0, len(parts)), ())
        p = rng.choice((0.1, 0.3, 0.6))
        edges = {e for part in parts for e in combinations(sorted(part), 2)}
        edges |= {e for e in combinations(range(n), 2) if rng.random() < p}
        g = Graph(n, edges)
        got = solve_multicolored_is_exact(g, parts)
        want = ref_multicolored_is(g, parts)
        assert (got.answer, got.witness) == (want.answer, want.witness), (g.edges(), parts)
        assert set(got.stats) == {"nodes"}
        answers.add((got.answer, len(parts) >= 3))
    assert answers == {(False, False), (False, True), (True, False), (True, True)}


def test_set_cover_matches_the_combinations_loop():
    # families with repeated sets, lam from 0 to 3 and k from 0 to 3
    rng = random.Random(410)
    answers = set()
    for _ in range(3000):
        lam, k = rng.randint(0, 3), rng.randint(0, 3)
        universe = lam * k
        pool = [frozenset(s) for s in combinations(range(universe), lam)]
        family = [rng.choice(pool) for _ in range(rng.randint(0, 9))] if pool else []
        got = solve_exact_set_cover(universe, family, lam, k)
        want = ref_set_cover(universe, family, k)
        assert (got.answer, got.witness) == (want.answer, want.witness), (family, lam, k)
        assert set(got.stats) == {"nodes"}
        answers.add((got.answer, k >= 2))
    assert answers == {(False, False), (False, True), (True, False), (True, True)}


def test_convc_matches_its_own_subset_loop():
    for rng, g, k in seeded_instances(403, 3000, 9):
        required = frozenset(v for v in g.vertices() if rng.random() < 0.15)
        assert same_result(solve_convc_exact(g, k, required=required),
                           ref_convc(g, k, required)), (g.edges(), k, required)


def test_ds_matches_its_own_subset_loop():
    for _, g, k in seeded_instances(404, 3000, 9):
        assert same_result(solve_ds_exact(g, k), ref_ds(g, k)), (g.edges(), k)


def test_coc_matches_its_own_subset_loop():
    for rng, g, k in seeded_instances(405, 3000, 9):
        ell = rng.randint(1, 3)
        assert same_result(solve_coc_exact(g, ell, k), ref_coc(g, ell, k)), (g.edges(), ell, k)


def test_capvc_matches_the_recursive_branching():
    for rng, g, k in seeded_instances(406, 3000, 7):
        cap = tuple(rng.randint(-1, 3) for _ in g.vertices())
        assert same_result(solve_capvc_exact(g, cap, k), ref_capvc(g, cap, k)), (g.edges(), cap, k)


def test_capvc_matches_the_recursive_branching_on_gadgets():
    # the set-cover gadget behind the lower bound, as the setcover-gadget
    # suite draws it: 8 to 24 vertices, deep branch trees, many paddings
    rng = random.Random(408)
    answers = set()
    for t in range(60):
        k = 2 if t % 3 == 2 else 1
        pool = list(combinations(range(3 * k), 3))
        rng.shuffle(pool)
        family = [frozenset(s) for s in pool[:rng.randint(0, 6 if k == 1 else 8)]]
        inst = gen_capvc_lowerbound(3 * k, family, 3, k)
        for budget in (inst.k - 1, inst.k):
            got = solve_capvc_exact(inst.graph, inst.cap, budget, max_n=32)
            assert same_result(got, ref_capvc(inst.graph, inst.cap, budget)), (family, budget)
            answers.add(got.answer)
    assert answers == {False, True}


def test_feasibility_matches_the_recursive_rerouting():
    rng = random.Random(407)
    for _ in range(3000):
        g = random_graph(rng.randint(0, 8), rng.choice((0.3, 0.5, 0.8)), rng)
        cover = frozenset(v for v in g.vertices() if rng.random() < 0.7)
        cap = tuple(rng.randint(-1, 3) for _ in g.vertices())
        assert capvc_assignment_feasible(g, cover, cap) == ref_feasible(g, cover, cap)


# --- deep inputs: every search keeps its own stack ---------------------------

def test_is_on_a_deep_edgeless_graph():
    g = Graph(1500)
    res = solve_is_exact(g, 1500, max_n=2000)
    assert res.answer and res.witness == frozenset(g.vertices())
    assert res.stats == {"nodes": 1501}


def test_capvc_on_a_long_perfect_matching():
    m = 1100
    g = Graph(2 * m, [(2 * i, 2 * i + 1) for i in range(m)])
    res = solve_capvc_exact(g, (1,) * g.n, m, max_n=3000)
    assert res.answer and res.witness == frozenset(range(0, 2 * m, 2))
    assert res.stats == {"feasibility_checks": 1}


def test_feasibility_reroutes_along_a_long_path():
    # every edge first meets a full lower endpoint, and the chain of full
    # vertices below it reaches back to vertex 0, which has no capacity
    g = path_graph(1500)
    cap = (0,) + (1,) * (g.n - 1)
    assert capvc_assignment_feasible(g, frozenset(g.vertices()), cap)
    assert not capvc_assignment_feasible(g, frozenset(g.vertices()), cap[:-1] + (0,))


# --- is_solution against the problem definitions -----------------------------
# Each predicate below is written from the definition alone, with its own
# component search, and compared on every vertex set (every edge set for im).

def def_components(g, verts):
    """Vertex sets of the components of G[verts]."""
    label = {v: v for v in verts}

    def root(v):
        while label[v] != v:
            v = label[v]
        return v

    for u, v in g.edges():
        if u in label and v in label:
            label[root(u)] = root(v)
    comps = {}
    for v in verts:
        comps.setdefault(root(v), set()).add(v)
    return list(comps.values())


def def_connected(g, s):
    return len(def_components(g, s)) <= 1


def def_solution(problem, witness):
    g, k = problem.graph, problem.k
    kind = problem.file_kind
    if kind == "im":
        ends = [v for e in witness for v in e]
        return (len(witness) >= k and all(g.has_edge(u, v) for u, v in witness)
                and len(set(ends)) == len(ends)
                and all(not g.has_edge(a, b) for e, f in combinations(witness, 2)
                        for a in e for b in f))
    s = set(witness)
    no_inner_edge = all(not g.has_edge(u, v) for u, v in combinations(s, 2))
    if kind == "is":
        if len(set(problem.parts)) <= 1:
            return len(s) >= k and no_inner_edge
        picked = [problem.parts[v] for v in s]
        return no_inner_edge and sorted(picked) == sorted(set(problem.parts))
    covers = all(u in s or v in s for u, v in g.edges())
    if len(s) > k:
        return False
    if kind == "capvc":
        # some endpoint in s for each edge, no vertex over its capacity
        choices = [[w for w in e if w in s] for e in g.edges()]
        return any(all(pick.count(v) <= max(problem.cap[v], 0) for v in s)
                   for pick in product(*choices))
    if kind == "convc":
        red = getattr(problem, "red", frozenset())
        return red <= s and covers and def_connected(g, s)
    if kind == "coc":
        rest = [v for v in g.vertices() if v not in s]
        return def_connected(g, s) and all(len(c) <= problem.ell
                                           for c in def_components(g, rest))
    assert kind == "ds"
    return all(v in s or g.adj(v) & s for v in g.vertices())


def small_problems(seed, count):
    """Seeded instances of every kind, multi-part is included, on at most 7
    vertices; capvc keeps at most 9 edges so its assignments stay few."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(0, 7)
        g = random_graph(n, rng.choice((0.2, 0.4, 0.7)), rng)
        k = rng.randint(0, n + 1)
        yield ConVcInstance(g, k)
        yield AnnotatedConVcInstance(g, frozenset(v for v in g.vertices()
                                                  if rng.random() < 0.2), k)
        yield CocInstance(g, rng.randint(1, 3), k)
        yield DsInstance(g, k)
        yield ImInstance(g, rng.randint(0, 3))
        yield IsInstance(g, (0,) * n, k)
        yield IsInstance(g, tuple(rng.randrange(3) for _ in range(n)), k)
        if g.m <= 9:
            yield CapVcInstance(g, tuple(rng.randint(-1, 2) for _ in range(n)), k)


def test_is_solution_agrees_with_the_definitions():
    kinds = set()
    for problem in small_problems(606, 40):
        g = problem.graph
        items = g.edges() if problem.file_kind == "im" else list(g.vertices())
        if len(items) > 10:
            items = items[:10]  # keeps im at 1,024 edge sets per graph
        kinds.add((problem.file_kind, len(set(getattr(problem, "parts", ()))) > 1))
        for size in range(len(items) + 1):
            for s in combinations(items, size):
                assert is_solution(problem, frozenset(s)) == def_solution(problem, s), \
                    (problem, s)
    assert kinds >= {("capvc", False), ("convc", False), ("coc", False), ("ds", False),
                     ("im", False), ("is", False), ("is", True)}



# --- solve_exact validates every witness -------------------------------------
# (problem, the oracle solve_exact dispatches it to, a witness that solves it,
# one over or under its budget, one that is infeasible within its budget)
C4 = cycle_graph(4)
P4 = path_graph(4)
P5 = path_graph(5)
BAD_WITNESS_CASES = {
    "capvc": (CapVcInstance(C4, (2, 2, 2, 2), 2), "solve_capvc_exact",
              frozenset({0, 2}), frozenset({0, 1, 2}), frozenset({0, 1})),
    "convc": (ConVcInstance(C4, 3), "solve_convc_exact",
              frozenset({0, 1, 2}), frozenset({0, 1, 2, 3}), frozenset({0, 2})),
    "convc-annotated": (AnnotatedConVcInstance(C4, frozenset({3}), 3), "solve_convc_exact",
                        frozenset({0, 1, 3}), frozenset({0, 1, 2, 3}), frozenset({0, 1, 2})),
    "coc": (CocInstance(C4, 2, 2), "solve_coc_exact",
            frozenset({0, 1}), frozenset({0, 1, 2}), frozenset({0, 2})),
    "ds": (DsInstance(C4, 2), "solve_ds_exact",
           frozenset({0, 2}), frozenset({0, 1, 2}), frozenset({0})),
    "im": (ImInstance(P5, 2), "solve_im_exact",
           frozenset({(0, 1), (3, 4)}), frozenset({(0, 1)}), frozenset({(0, 1), (2, 3)})),
    "is": (IsInstance(C4, (0,) * 4, 2), "solve_is_exact",
           frozenset({0, 2}), frozenset({0}), frozenset({0, 1})),
    # parts {0, 1} and {2, 3}, each a clique of the path 0-1-2-3
    "is-multi-part": (IsInstance(P4, (0, 0, 1, 1), 0), "solve_multicolored_is_exact",
                      (0, 2), (0,), (1, 2)),
}


@pytest.mark.parametrize("case", sorted(BAD_WITNESS_CASES))
def test_solve_exact_raises_on_a_bad_witness(case, monkeypatch):
    problem, oracle, good, over_budget, infeasible = BAD_WITNESS_CASES[case]
    assert solve_exact(problem, max_n=10).answer  # the real oracle passes the check
    for witness in (over_budget, infeasible):
        assert not is_solution(problem, witness)
        monkeypatch.setattr(oracles_mod, oracle, lambda *a, w=witness, **kw: OracleResult(True, w))
        with pytest.raises(RuntimeError, match="^witness failed validation$"):
            solve_exact(problem, max_n=10)
    monkeypatch.setattr(oracles_mod, oracle, lambda *a, **kw: OracleResult(True, good))
    assert solve_exact(problem, max_n=10).witness == good
    # a no answer, or a yes without a witness, has nothing to check
    monkeypatch.setattr(oracles_mod, oracle, lambda *a, **kw: OracleResult(False, infeasible))
    assert not solve_exact(problem, max_n=10).answer
    monkeypatch.setattr(oracles_mod, oracle, lambda *a, **kw: OracleResult(True))
    assert solve_exact(problem, max_n=10).answer
