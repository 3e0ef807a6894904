"""Acceptance gate: every advertised guarantee at full scale, one test per
criterion so the -v report reads as a per-criterion pass/fail list. Each test
also enforces its wall-clock budget."""

import time

from closurekernels.suites.biclique_certificate import suite_biclique_certificate
from closurekernels.suites.composition_patterns import suite_composition_patterns
from closurekernels.suites.determinism import suite_determinism
from closurekernels.suites.kernel_size_bounds import suite_kernel_size_bounds
from closurekernels.suites.parameter_engines import suite_parameter_engines
from closurekernels.suites.ramsey_guarantee import suite_ramsey_guarantee
from closurekernels.suites.rule_safety import suite_rule_safety
from closurekernels.suites.setcover_gadget import suite_setcover_gadget
from closurekernels.suites.vclp_exactness import suite_vclp_exactness


def _finish(result, started, budget_s, minimum):
    elapsed = time.time() - started
    assert result.passed, "; ".join(result.failures)
    assert result.checked >= minimum
    assert elapsed < budget_s, f"suite took {elapsed:.1f}s, budget {budget_s}s"


def test_criterion_1_parameter_engines():
    """Greedy weak closure matches the exhaustive optimum on 5000 random
    graphs with up to 8 vertices; closure and degeneracy dominate it; the
    emitted ordering satisfies the intersection bound on every nonadjacent
    pair."""
    started = time.time()
    _finish(suite_parameter_engines(trials=5000, seed=0), started, 120, 5000)


def test_criterion_2_rule_safety():
    """Each of the 14 reduction rules preserves the oracle answer on 1000
    seeded instances (n <= 11, k <= 4, ell <= 2, caps <= 4), both after one
    application and after running its pipeline to exhaustion."""
    started = time.time()
    _finish(suite_rule_safety(trials=1000, seed=0), started, 600, 14000)


def test_criterion_3_setcover_gadget():
    """200 random disjoint-cover instances with triple sets and one or two
    cover slots: the capacitated gadget answers exactly like the set-cover
    oracle, stays 7-closed, and hits the edge-count formula."""
    started = time.time()
    _finish(suite_setcover_gadget(trials=200, seed=0), started, 300, 200)


def test_criterion_4_composition_patterns():
    """All 16 yes/no patterns of the 2x2 grid composition answer as the
    disjunction of their inputs, with the selector-path layout intact."""
    started = time.time()
    _finish(suite_composition_patterns(), started, 120, 16)


def test_criterion_5_kernel_size_bounds():
    """Reduced yes-instances respect the explicit size bounds: the class
    count bound for both vertex cover kernels, the factorial bound for the
    split dominating set kernel, and the quadratic closure bound for the
    annotated route."""
    started = time.time()
    _finish(suite_kernel_size_bounds(trials=200, seed=0), started, 300, 200)


def test_criterion_6_biclique_certificate():
    """500 random bipartite, sparse, and clique-union graphs on up to 18
    vertices never contain a balanced complete bipartite subgraph with sides
    of weak closure + clique number + 1."""
    started = time.time()
    _finish(suite_biclique_certificate(trials=500, seed=0), started, 300, 500)


def test_criterion_7_ramsey_guarantee():
    """For target sizes up to 4 and weak closure up to 2, every sampled graph
    at or above the guarantee threshold yields a validating clique or
    independent-set witness."""
    started = time.time()
    _finish(suite_ramsey_guarantee(trials=60, seed=0), started, 300, 200)


def test_criterion_8_vclp_exactness():
    """The combinatorial LP solver matches exhaustive search over all
    half-integral assignments on every suite graph with up to 10 vertices,
    and its objective decomposes into halves and ones."""
    started = time.time()
    _finish(suite_vclp_exactness(trials=300, seed=0), started, 120, 300)


def test_criterion_9_determinism():
    """Generators and the kernel command produce byte-identical output across
    repeat runs, including fresh interpreters with different hash seeds."""
    started = time.time()
    _finish(suite_determinism(seed=0), started, 60, 7)
