import inspect
import pickle
import random
import sys
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from closurekernels.graph import (
    Graph,
    complete_bipartite,
    complete_graph,
    connected_components,
    contains_biclique,
    cycle_graph,
    delete_vertices,
    empty_graph,
    induced_subgraph,
    is_clique,
    is_connected_set,
    is_independent_set,
    is_vertex_cover,
    maximal_cliques,
    clique_number,
    path_graph,
    star_graph,
)
from closurekernels.convc import CocInstance, ConVcInstance
from closurekernels.induced_matching import ImInstance
from closurekernels.instance_io import InstanceFile
from closurekernels.oracles import OracleResult


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


def test_components():
    g = Graph(6, [(0, 1), (2, 3), (3, 4)])
    assert connected_components(g) == [(0, 1), (2, 3, 4), (5,)]


def test_maximal_cliques_pivoting():
    # K4 minus one edge: two triangles
    g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)])
    assert maximal_cliques(g) == [(0, 1, 2), (0, 2, 3)]
    assert clique_number(g) == 3
    assert maximal_cliques(empty_graph(3)) == [(0,), (1,), (2,)]
    assert maximal_cliques(empty_graph(0)) == [()]
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


def test_maximal_cliques_on_a_deep_clique():
    g = complete_graph(150)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        assert maximal_cliques(g) == [tuple(range(150))]
    finally:
        sys.setrecursionlimit(old)


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
