"""The shared reduction driver: priority order, restart after a fire, stop
on a decision."""

import json
import random

import pytest

from closurekernels.capvc import CapVcInstance, kernelize_capvc
from closurekernels.convc import (
    AnnotatedConVcInstance,
    CocInstance,
    ConVcInstance,
    kernelize_coc,
    kernelize_convc,
    kernelize_convc_annotated,
    kernelize_convc_c,
)
from closurekernels.domset import DsInstance, kernelize_ds_split
from closurekernels.generators import gen_random_split, path_graph
from closurekernels.graph import Graph
from closurekernels.induced_matching import ImInstance, kernelize_im
from closurekernels.instance_io import from_problem, parse_instance, to_problem, write_instance
from closurekernels.reduction import Decided, IsInstance, exhaust


def _halve_even(x):
    return (x // 2, {"rule": "halve", "from": x}) if x % 2 == 0 and x > 0 else (x, None)


def _drop_three(x):
    return (x - 3, {"rule": "drop", "from": x}) if x >= 3 else (x, None)


def _decide_at_one(x):
    return (Decided(True, "one"), {"rule": "one", "decided": "yes"}) if x == 1 else (x, None)


def test_restarts_from_first_rule_after_each_fire():
    # 11 -> drop 8 -> halve 4 -> halve 2 -> halve 1; the halving rule comes
    # first, so it runs again after every drop
    out, trace = exhaust(11, (_halve_even, _drop_three))
    assert out == 1
    assert [(e["rule"], e["from"]) for e in trace] == [
        ("drop", 11), ("halve", 8), ("halve", 4), ("halve", 2)]


def test_nothing_fires_returns_input_and_empty_trace():
    assert exhaust(1, (_halve_even, _drop_three)) == (1, [])
    assert exhaust(5, ()) == (5, [])


def test_stops_at_a_decision_with_its_entry_last():
    out, trace = exhaust(4, (_decide_at_one, _halve_even))
    assert out == Decided(True, "one")
    assert [e["rule"] for e in trace] == ["halve", "halve", "one"]


def _twin_heavy(rng, n):
    # a random base graph, then false-twin copies of some of its vertices
    base = rng.randint(2, n - 2)
    edges = [(u, v) for u in range(base) for v in range(u + 1, base) if rng.random() < 0.4]
    adj = {v: {w for e in edges if v in e for w in e if w != v} for v in range(base)}
    for copy in range(base, n):
        edges += [(w, copy) for w in adj[rng.randrange(base)]]
    return Graph(n, edges)


def test_kernel_traces_are_plain_json():
    # `kernel` writes the rule entries as they are, so each one must survive
    # a JSON round trip unchanged: str keys, no tuples, sets or int keys
    rng = random.Random(41)
    routes = {
        "capvc": lambda g, k: kernelize_capvc(
            CapVcInstance(g, tuple(rng.randint(0, 3) for _ in g.vertices()), k)),
        "convc-gamma": lambda g, k: kernelize_convc(ConVcInstance(g, k)),
        "convc-c": lambda g, k: kernelize_convc_c(ConVcInstance(g, k)),
        "convc-red": lambda g, k: kernelize_convc_annotated(AnnotatedConVcInstance(
            g, frozenset(rng.sample(range(g.n), 2)), k)),
        "coc": lambda g, k: kernelize_coc(CocInstance(g, rng.randint(1, 2), k)),
        "im": lambda g, k: kernelize_im(ImInstance(g, k)),
        "ds": lambda g, k: kernelize_ds_split(DsInstance(gen_random_split(g.n, rng.randrange(1000)), k)),
    }
    traces = [kernelize(_twin_heavy(rng, rng.randint(5, 12)), rng.randint(0, 3))[1]
              for kernelize in routes.values() for _ in range(25)]
    # a bowtie's hub peels first, with a 2-edge matching behind it
    bowtie = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)])
    traces.append(kernelize_im(ImInstance(bowtie, 1))[1])
    for trace in traces:
        assert json.loads(json.dumps(trace)) == trace
    fired = {entry["rule"] for trace in traces for entry in trace}
    assert fired == {  # every rule a kernel tries
        "twin-class", "component-twin", "isolated-white", "simplicial", "single-vertex",
        "small-component", "split-edges", "split-red", "twinset", "dominated-clique-vertex",
        "dominated-independent-vertex", "isolated", "sunflower", "dense-posterior",
        "lp-threshold", "twin"}


def test_without_carries_cap_to_the_new_ids():
    inst = CapVcInstance(path_graph(4), (5, 6, 7, 8), 2)
    assert inst.without([1]) == CapVcInstance(Graph(3, [(1, 2)]), (5, 7, 8), 2)
    # changes name vertices in the numbering before the deletion
    assert inst.without([1], cap=(50, 60, 70, 80)) == \
        CapVcInstance(Graph(3, [(1, 2)]), (50, 70, 80), 2)


def test_without_carries_red_to_the_new_ids():
    inst = AnnotatedConVcInstance(path_graph(4), frozenset({1, 3}), 2)
    assert inst.without([0]) == AnnotatedConVcInstance(path_graph(3), frozenset({0, 2}), 2)
    assert inst.without([1], red={2, 3}, k=1) == \
        AnnotatedConVcInstance(Graph(3, [(1, 2)]), frozenset({1, 2}), 1)
    # a deleted vertex takes its red mark with it
    assert inst.without([3]).red == frozenset({1})


def test_without_carries_parts_to_the_new_ids():
    inst = IsInstance(Graph(3, [(0, 1)]), (0, 0, 1), 1)
    assert inst.without([2]) == IsInstance(Graph(2, [(0, 1)]), (0, 0), 1)
    assert inst.without([0]) == IsInstance(Graph(2), (0, 1), 1)
    # changes name vertices in the numbering before the deletion
    assert inst.without([1], parts=(4, 5, 6), k=2) == IsInstance(Graph(2), (4, 6), 2)


def test_fields_are_everything_but_graph_and_budget():
    g = path_graph(3)
    assert CapVcInstance(g, (1, 2, 3), 1).fields() == {"cap": (1, 2, 3)}
    assert AnnotatedConVcInstance(g, frozenset({2, 0}), 1).fields() == {"red": (0, 2)}
    assert CocInstance(g, 2, 1).fields() == {"ell": 2}
    assert IsInstance(g, (0, 1, 1), 1).fields() == {"parts": (0, 1, 1)}
    for inst in (ConVcInstance(g, 1), ImInstance(g, 1), DsInstance(g, 1)):
        assert inst.fields() == {}
    with pytest.raises(TypeError, match="cannot serialize Decided"):
        from_problem(Decided(True, "settled"))


def test_without_keeps_the_class_and_other_fields():
    g = path_graph(5)
    for inst in (ConVcInstance(g, 2), CocInstance(g, 3, 2), ImInstance(g, 2), DsInstance(g, 2)):
        out = inst.without([0, 4])
        assert type(out) is type(inst) and out == inst.replace(graph=path_graph(3))


@pytest.mark.parametrize("inst", [
    CapVcInstance(path_graph(3), (1, 1, 1), 1),
    ConVcInstance(path_graph(3), 1),
    AnnotatedConVcInstance(path_graph(3), frozenset({1}), 1),
    CocInstance(path_graph(3), 1, 1),
    ImInstance(path_graph(3), 1),
    DsInstance(path_graph(3), 1),
    IsInstance(path_graph(3), (0, 0, 0), 1),
], ids=lambda inst: type(inst).__name__)
def test_without_validates_again(inst):
    with pytest.raises(ValueError, match="budget must be nonnegative"):
        inst.without([0], k=-1)


def test_is_instance_round_trips_through_files():
    g = Graph(4, [(0, 1), (2, 3)])
    for problem in (IsInstance(g, (0, 0, 0, 0), 2), IsInstance(g, (1, 1, 0, 0), 2)):
        back = to_problem(parse_instance(write_instance(from_problem(problem))))
        assert back == problem
    assert IsInstance(g, (1, 1, 0, 0), 2).groups() == [(2, 3), (0, 1)]
    with pytest.raises(ValueError, match="budget must be nonnegative"):
        IsInstance(g, (0, 0, 0, 0), -1)
    with pytest.raises(ValueError, match="part vector length"):
        IsInstance(g, (0, 0), 1)
