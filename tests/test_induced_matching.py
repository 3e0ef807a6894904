import random

import pytest

from closurekernels import induced_matching
from closurekernels.closure import weak_closure_ordering
from closurekernels.combinatorics import vclp_half_integral
from closurekernels.graph import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
)
from closurekernels.induced_matching import (
    ImInstance,
    dense_posterior_rule,
    im_twin_rule,
    kernelize_im,
    lp_threshold_rule,
    lp_yes_threshold,
    posterior_matching_threshold,
)
from closurekernels.oracles import solve_im_exact
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


def lp_threshold_rule_reference(inst):
    # the rule before its early return: always measures the weak closure
    # and solves the LP at positive budget
    g, k = inst.graph, inst.k
    if k == 0:
        return Decided(True, "empty matching suffices"), {"rule": "lp-threshold", "decided": "yes"}
    wc = weak_closure_ordering(g).weak_closure
    doubled = sum(vclp_half_integral(g).value2)
    threshold = induced_matching.lp_yes_threshold(wc, k)
    if doubled >= threshold:
        entry = {"rule": "lp-threshold", "decided": "yes", "lp_doubled": doubled,
                 "threshold": threshold}
        return Decided(True, "cover LP optimum exceeds threshold"), entry
    return inst, None


@pytest.mark.parametrize("threshold, fires", [
    (lp_yes_threshold, False),
    # small and increasing in both arguments, like the real one, so that
    # the LP comparison also decides some cases at positive budget
    (lambda wc, k: 4 * wc + 3 * k, True),
], ids=["paper", "small"])
def test_lp_rule_early_return_matches_reference(monkeypatch, threshold, fires):
    monkeypatch.setattr(induced_matching, "lp_yes_threshold", threshold)
    rng = random.Random(4141)
    early = fired = 0
    for _ in range(300):
        g = random_graph(rng, rng.randint(0, 12), rng.choice([0.2, 0.5, 0.9]))
        inst = ImInstance(g, rng.randint(0, 3))
        got = lp_threshold_rule(inst)
        assert got == lp_threshold_rule_reference(inst)
        if inst.k > 0:
            early += 2 * g.n < threshold(1, inst.k)
            fired += got[1] is not None
    assert early > 0 and (fired > 0) == fires


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


def test_instance_validation():
    with pytest.raises(ValueError):
        ImInstance(path_graph(2), -1)
