import inspect
import pickle
import random
import sys
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from closurekernels.cliquesearch import first_clique
from closurekernels.domset import contains_biclique
from closurekernels.generators import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from closurekernels.graph import (
    Graph,
    clique_number,
    connected_components,
    delete_vertices,
    induced_subgraph,
    is_clique,
    is_independent_set,
    maximal_cliques,
    twin_classes,
)
from closurekernels.convc import CocInstance, ConVcInstance
from closurekernels.induced_matching import ImInstance
from closurekernels.instance_io import InstanceFile
from closurekernels.oracles import OracleResult, is_connected_set, is_vertex_cover


def test_build_and_counts():
    g = Graph(4, [(0, 1), (1, 2), (1, 2)])  # duplicate edge collapses
    assert g.n == 4
    assert g.m == 2
    assert g.neighbors(1) == (0, 2)
    assert g.adj(1) == frozenset({0, 2})
    assert g.degree(3) == 0
    assert g.has_edge(2, 1)
    assert not g.has_edge(0, 3)


def test_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(-1)


def test_edges_sorted_roundtrip():
    g = cycle_graph(5)
    assert g.edges() == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
    again = Graph(g.n, g.edges())
    assert again == g
    assert hash(again) == hash(g)


@given(st.integers(2, 8), st.data())
def test_rebuild_from_edges_identity(n, data):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))
    g = Graph(n, chosen)
    assert Graph(n, g.edges()) == g


def test_induced_subgraph_idmap():
    g = cycle_graph(5)
    sub, idmap = induced_subgraph(g, [1, 2, 4])
    assert idmap == (1, 2, 4)
    assert sub.edges() == [(0, 1)]  # only 1-2 survives
    sub2, idmap2 = delete_vertices(g, [0])
    assert idmap2 == (1, 2, 3, 4)
    assert sub2.edges() == [(0, 1), (1, 2), (2, 3)]


def edge_list_induced_subgraph(g, keep):
    # the build induced_subgraph replaced: filter the edge list, renumber,
    # and run the checked constructor
    idmap = tuple(sorted(set(keep)))
    for v in idmap:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range")
    back = {old: new for new, old in enumerate(idmap)}
    edges = [(back[u], back[v]) for u, v in g.edges() if u in back and v in back]
    return Graph(len(idmap), edges), idmap


def test_induced_subgraph_matches_edge_list_build():
    rng = random.Random(211)
    for _ in range(320):
        n = rng.randint(0, 30)
        p = rng.choice((0.1, 0.3, 0.6, 0.9))
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        keeps = [[], list(range(n)), [v for v in range(n) if rng.random() < 0.5]]
        if n:
            keeps.append([rng.randrange(n) for _ in range(rng.randint(1, 2 * n))])
        for keep in keeps:
            sub, idmap = induced_subgraph(g, keep)
            assert induced_subgraph(g, iter(keep)) == (sub, idmap)
            ref, ref_map = edge_list_induced_subgraph(g, keep)
            assert idmap == ref_map
            assert sub.n == ref.n and sub.m == ref.m
            assert [sub.neighbors(v) for v in sub.vertices()] == [
                ref.neighbors(v) for v in ref.vertices()]
            assert sub.adjacency() == ref.adjacency()
            assert sub.edges() == ref.edges()
            assert sub == ref and hash(sub) == hash(ref)
        bad = rng.choice((-1, n, n + 3))
        with pytest.raises(ValueError, match=f"vertex {bad} out of range"):
            induced_subgraph(g, [*range(0, n, 2), bad])


def test_predicates():
    g = complete_graph(4)
    assert is_clique(g, [0, 1, 3])
    assert not is_independent_set(g, [0, 1])
    assert is_independent_set(g, [2])
    assert is_vertex_cover(g, [0, 1, 2])
    assert not is_vertex_cover(g, [0, 1])
    p = path_graph(4)
    assert is_connected_set(p, [1, 2, 3])
    assert not is_connected_set(p, [0, 3])
    assert is_connected_set(p, [])


def edge_list_is_vertex_cover(g, s):
    """is_vertex_cover as it was before it read neighborhoods: every edge
    of g.edges() has an end in s; the reference."""
    ss = set(s)
    return all(u in ss or v in ss for u, v in g.edges())


def test_vertex_cover_matches_the_edge_list_check():
    rng = random.Random(131)
    covers = 0
    for _ in range(3000):
        n = rng.randint(0, 10)
        p = rng.choice((0.1, 0.3, 0.6, 0.9))
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        # members may repeat or fall outside the graph, and come as any iterable
        s = [rng.randrange(-2, n + 2) for _ in range(rng.randint(0, n + 2))]
        want = edge_list_is_vertex_cover(g, s)
        assert is_vertex_cover(g, s) == want, (g.edges(), s)
        assert is_vertex_cover(g, iter(s)) == want
        covers += want and g.m > 0
    assert covers >= 300


def test_twin_classes_match_a_sorted_reference():
    # half the graphs are blow-ups: vertices copying a base vertex's
    # neighbourhood are false twins of each other
    rng = random.Random(307)
    for _ in range(1500):
        n = rng.randint(0, 30)
        if rng.random() < 0.5:
            g = Graph(n, [e for e in combinations(range(n), 2)
                          if rng.random() < rng.choice((0.05, 0.3, 0.7))])
        else:
            base = [rng.randrange(max(1, n // 3)) for _ in range(n)]
            links = {e for e in combinations(range(max(1, n // 3)), 2) if rng.random() < 0.5}
            g = Graph(n, [(u, v) for u, v in combinations(range(n), 2)
                          if tuple(sorted((base[u], base[v]))) in links])
        ref = sorted({tuple(sorted(w for w in g.vertices() if g.adj(w) == g.adj(v)))
                      for v in g.vertices()})
        assert twin_classes(g) == ref


def test_components():
    g = Graph(6, [(0, 1), (2, 3), (3, 4)])
    assert connected_components(g) == [(0, 1), (2, 3, 4), (5,)]


def test_maximal_cliques_pivoting():
    # K4 minus one edge: two triangles
    g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)])
    assert maximal_cliques(g) == [(0, 1, 2), (0, 2, 3)]
    assert clique_number(g) == 3
    assert maximal_cliques(Graph(3)) == [(0,), (1,), (2,)]
    assert maximal_cliques(Graph(0)) == [()]
    assert clique_number(complete_graph(5)) == 5


def recursive_maximal_cliques(g):
    """Reference: the pivoting Bron–Kerbosch recursion that `maximal_cliques`
    replaced."""
    if g.n == 0:
        return [()]
    out = []
    adj = g.adjacency()

    def expand(r, p, x):
        if not p and not x:
            out.append(tuple(sorted(r)))
            return
        pivot = max(sorted(p | x), key=lambda u: len(p & adj[u]))
        for v in sorted(p - adj[pivot]):
            expand(r | {v}, p & adj[v], x & adj[v])
            p.remove(v)
            x.add(v)

    expand(set(), set(g.vertices()), set())
    return sorted(out)


def test_maximal_cliques_match_the_recursion():
    rng = random.Random(61)
    for _ in range(600):
        n = rng.randint(0, 12)
        p = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9])
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        assert maximal_cliques(g) == recursive_maximal_cliques(g)


def set_maximal_cliques(g):
    """`maximal_cliques` as it was before its pivot keys were popcounts:
    the same stack search on vertex sets, one set intersection per key."""
    if g.n == 0:
        return [()]
    out = []
    adj = g.adjacency()

    def node(r, p, x):
        pivot = max(sorted(p | x), key=lambda u: len(p & adj[u]))
        return r, p, x, iter(sorted(p - adj[pivot]))

    stack = [node((), set(g.vertices()), set())]
    while stack:
        r, p, x, branches = stack[-1]
        v = next(branches, None)
        if v is None:
            stack.pop()
            continue
        child_p, child_x = p & adj[v], x & adj[v]
        p.remove(v)
        x.add(v)
        if child_p:
            stack.append(node(r + (v,), child_p, child_x))
        elif not child_x:
            out.append(tuple(sorted(r + (v,))))
    return sorted(out)


def test_maximal_cliques_match_the_set_search():
    rng = random.Random(67)
    graphs = [complete_graph(n) for n in (1, 2, 5, 40)]
    graphs += [Graph(n) for n in (1, 7)]
    for _ in range(800):
        n = rng.randint(0, 18)
        p = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9])
        graphs.append(Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p]))
    for _ in range(40):
        # a few cliques glued at shared vertices, plus sparse noise
        n = rng.randint(10, 40)
        edges = {e for e in combinations(range(n), 2) if rng.random() < 0.05}
        for _ in range(rng.randint(1, 4)):
            edges.update(combinations(sorted(rng.sample(range(n), rng.randint(3, 9))), 2))
        graphs.append(Graph(n, edges))
    for g in graphs:
        assert maximal_cliques(g) == set_maximal_cliques(g), g.edges()


def test_maximal_cliques_on_a_deep_clique():
    g = complete_graph(150)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        assert maximal_cliques(g) == [tuple(range(150))]
    finally:
        sys.setrecursionlimit(old)


# --- the shared clique search ------------------------------------------------

def compatible_set(items, k, compatible):
    """The list-based search the independent set and induced matching oracles
    used before `first_clique`, kept as the reference for its node count."""
    n = len(items)
    chosen = []
    stack = []
    nodes = 0
    start = 0
    while True:
        nodes += 1  # enter the node that chooses from items[start:]
        if len(chosen) >= k:
            return frozenset(chosen), nodes
        if len(chosen) + n - start >= k:
            stack.append(start)
        elif chosen:
            chosen.pop()
        # resume the deepest open node at its next compatible item
        while stack:
            i = stack[-1]
            while i < n and not all(compatible(items[i], c) for c in chosen):
                i += 1
            if i < n:
                stack[-1] = start = i + 1
                chosen.append(items[i])
                break
            stack.pop()
            if chosen:
                chosen.pop()
        else:
            return None, nodes


def seeded_masks(seed, count):
    """Symmetric compatibility masks on 0 to 12 items, each item's own bit
    set or unset at random, with k from -1 to n + 2."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(0, 12)
        p = rng.choice((0.2, 0.5, 0.8, 1.0))
        masks = [0] * n
        for i, j in combinations(range(n), 2):
            if rng.random() < p:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
        for i in range(n):
            if rng.random() < 0.5:
                masks[i] |= 1 << i
        yield masks, rng.randint(-1, n + 2)


class TestFirstClique:
    def test_matches_the_combinations_scan(self):
        found = set()
        for masks, k in seeded_masks(501, 3000):
            want = next((s for s in combinations(range(len(masks)), max(k, 0))
                         if all(masks[i] >> j & 1 for i, j in combinations(s, 2))), None)
            got, _ = first_clique(masks, k)
            assert got == want, (masks, k)
            found.add((got is None, k == 0, k > len(masks), k >= 3 and got is not None))
        # no answer, k = 0, k > n and answers three or more deep all occur
        assert {(True, False, False, False), (False, True, False, False),
                (True, False, True, False), (False, False, False, True)} <= found

    def test_counts_the_nodes_of_the_list_search(self):
        for masks, k in seeded_masks(502, 3000):
            want, nodes = compatible_set(range(len(masks)), k,
                                         lambda i, j: masks[i] >> j & 1)
            got = first_clique(masks, k)
            assert got == (None if want is None else tuple(sorted(want)), nodes), (masks, k)

    def test_a_whole_item_set(self):
        full = (1 << 2500) - 1
        assert first_clique([full] * 2500, 2500) == (tuple(range(2500)), 2501)
        assert first_clique([0] * 2500, 2) == (None, 2501)


def test_biclique_search():
    g = complete_bipartite(2, 3)
    hit = contains_biclique(g, 2, 3)
    assert hit is not None
    r, s = hit
    assert set(r) == {0, 1} and set(s) == {2, 3, 4}
    # K5 has no K_{3,3} subgraph: sides must be disjoint, needing 6 vertices
    assert contains_biclique(complete_graph(5), 3, 3) is None
    # sides swap transparently
    hit2 = contains_biclique(g, 3, 2)
    assert hit2 is not None and len(hit2[0]) == 3 and len(hit2[1]) == 2
    with pytest.raises(ValueError):
        contains_biclique(g, 0, 2)


def test_biclique_in_clique():
    # K6 contains K_{3,3} as a subgraph (any 3+3 split)
    hit = contains_biclique(complete_graph(6), 3, 3)
    assert hit is not None
    r, s = hit
    assert len(set(r) | set(s)) == 6


def test_star_and_bipartite_builders():
    s = star_graph(4)
    assert s.n == 5 and s.m == 4 and s.degree(0) == 4
    b = complete_bipartite(2, 5)
    assert b.n == 7 and b.m == 10


def test_record_value_semantics():
    g = path_graph(4)
    assert ConVcInstance(g, 3) != ImInstance(g, 3)
    assert ConVcInstance(g, 3) == ConVcInstance(path_graph(4), 3)
    assert hash(ImInstance(g, 3)) == hash(ImInstance(path_graph(4), 3))
    assert len({ImInstance(g, 3), ImInstance(g, 3), ImInstance(g, 2)}) == 2
    assert repr(ImInstance(g, 3)) == "ImInstance(graph=Graph(n=4, m=3), k=3)"
    assert repr(OracleResult(True)) == "OracleResult(answer=True, witness=None, stats={})"
    assert pickle.loads(pickle.dumps(CocInstance(g, 2, 1))) == CocInstance(g, 2, 1)


def test_record_is_immutable():
    inst = ImInstance(path_graph(4), 3)
    with pytest.raises(AttributeError):
        inst.k = 1
    with pytest.raises(AttributeError):
        del inst.k
    with pytest.raises(AttributeError):
        inst.extra = 1
    assert inst.k == 3


def test_record_defaults_and_fields():
    one, two = OracleResult(True), OracleResult(True)
    one.stats["nodes"] = 1
    assert two.stats == {} and one.witness is None
    assert InstanceFile("graph", path_graph(2), 0).labels == (0, 1)
    assert ConVcInstance(k=2, graph=path_graph(2)) == ConVcInstance(path_graph(2), 2)
    with pytest.raises(TypeError):
        ConVcInstance(path_graph(2))
    with pytest.raises(TypeError):
        ConVcInstance(path_graph(2), 2, 1)
    with pytest.raises(TypeError):
        ConVcInstance(path_graph(2), 2, budget=1)


def test_record_replace_validates_again():
    inst = CocInstance(path_graph(5), 2, 1)
    assert inst.replace(k=3) == CocInstance(path_graph(5), 2, 3)
    assert inst.replace(ell=1).ell == 1 and inst.ell == 2
    with pytest.raises(ValueError, match="budget must be nonnegative"):
        inst.replace(k=-1)
    with pytest.raises(TypeError):
        inst.replace(budget=1)
