"""Cross-checking suites over the whole toolkit.

Every suite draws seeded random instances, recomputes the claimed property
with an independent method (usually a brute-force oracle), and reports a
SuiteResult. Counterexamples are attached as instance files so the CLI can
dump them for offline inspection. The acceptance tests call the same suite
functions at full scale; the CLI `verify` command runs them at a size chosen
by --trials.

Suites never raise on a property violation. They raise only on programming
errors (bad arguments, broken invariants inside the suite itself).
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import tempfile
from itertools import combinations
from typing import Callable

from .capvc import CapVcInstance, kernelize_capvc, size_bound_report, twin_crown_rule
from .closure import (
    closure_number,
    degeneracy,
    exhaustive_weak_closure,
    verify_closure_ordering,
    weak_closure_ordering,
)
from .combinatorics import vclp_half_integral, vclp_is_feasible
from .convc import (
    AnnotatedConVcInstance,
    CocInstance,
    ConVcInstance,
    annotated_bound_report,
    component_twin_rule,
    kernelize_coc,
    kernelize_convc,
    kernelize_convc_annotated,
    simplicial_rule,
    small_component_rule,
    trivial_rules,
    twinset_bound_report,
    twinset_rule,
)
from .domset import (
    DsInstance,
    biclique_freeness_report,
    covers_clique_rule,
    dominated_clique_vertex_rule,
    dominated_independent_vertex_rule,
    isolated_rule,
    kernelize_ds_split,
    split_bound_report,
    sunflower_rule,
)
from .generators import (
    _random_clique_union,
    composition_layout,
    gen_capvc_lowerbound,
    gen_is_composition,
    gen_k_ab,
    gen_random_bipartite,
    gen_random_split,
    gen_random_weakly_closed,
)
from .graph import Graph, Record, complete_graph, cycle_graph, delete_vertices, path_graph
from .induced_matching import (
    ImInstance,
    dense_posterior_rule,
    im_twin_rule,
    kernelize_im,
    lp_threshold_rule,
)
from .instance_io import InstanceFile, IsInstance, from_problem, write_instance
from .oracles import solve_capvc_exact, solve_exact, solve_exact_set_cover, solve_is_exact
from .ramsey import clique_or_independent_set, r_gamma_bound, validate_witness
from .reduction import Decided


class SuiteResult(Record):
    """Outcome of one suite: pass/fail, how many checks ran, what broke."""

    __slots__ = ("name", "passed", "checked", "failures", "artifacts")
    name: str
    passed: bool
    checked: int
    failures: tuple[str, ...]
    artifacts: tuple[InstanceFile, ...]
    _defaults = {"failures": (), "artifacts": ()}

    def summary(self) -> str:
        word = "ok" if self.passed else "FAIL"
        line = f"{self.name}: {word} ({self.checked} checks"
        if self.failures:
            line += f", {len(self.failures)} failures"
        return line + ")"


_MAX_FAILURES = 5


class _Recorder:
    """Collects failures up to a cap so broken suites stay fast."""

    def __init__(self, name: str):
        self.name = name
        self.checked = 0
        self.failures: list[str] = []
        self.artifacts: list[InstanceFile] = []

    def ok(self) -> None:
        self.checked += 1

    def fail(self, message: str, artifact: InstanceFile | None = None) -> None:
        self.checked += 1
        if len(self.failures) < _MAX_FAILURES:
            self.failures.append(message)
            if artifact is not None:
                self.artifacts.append(artifact)

    @property
    def saturated(self) -> bool:
        return len(self.failures) >= _MAX_FAILURES

    def result(self) -> SuiteResult:
        return SuiteResult(self.name, not self.failures, self.checked,
                           tuple(self.failures), tuple(self.artifacts))


def _random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def _random_connected(rng: random.Random, n: int, p: float) -> Graph:
    g = _random_graph(rng, n, p)
    edges = set(g.edges())
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    return Graph(n, sorted(edges))


def _random_split(rng: random.Random, max_n: int) -> Graph:
    n = rng.randint(1, max_n)
    a = rng.randint(0, n)
    edges = list(combinations(range(a), 2))
    p = rng.random()
    for u in range(a):
        for v in range(a, n):
            if rng.random() < p:
                edges.append((u, v))
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# suite 1: parameter engines


def suite_parameter_engines(trials: int = 5000, seed: int = 0) -> SuiteResult:
    """Greedy weak closure against the subset-DP optimum, the closure and
    degeneracy dominations, and the prefix/suffix intersection invariant of
    the emitted ordering on every nonadjacent pair."""
    rec = _Recorder("parameter-engines")
    rng = random.Random(f"verify:params:{seed}")
    densities = (0.15, 0.3, 0.5, 0.7, 0.9)
    for _ in range(trials):
        if rec.saturated:
            break
        n = rng.randint(0, 8)
        g = _random_graph(rng, n, rng.choice(densities))
        ordering = weak_closure_ordering(g)
        wc = ordering.weak_closure
        problems: list[str] = []
        if not verify_closure_ordering(g, ordering):
            problems.append("emitted certificate does not recompute")
        best = exhaustive_weak_closure(g)
        if wc != best:
            problems.append(f"greedy weak closure {wc} != optimum {best}")
        if closure_number(g) < wc:
            problems.append("closure number below weak closure")
        if degeneracy(g)[0] + 1 < wc:
            problems.append("degeneracy + 1 below weak closure")
        pos = {v: i for i, v in enumerate(ordering.order)}
        later = {v: frozenset(w for w in g.adj(v) if pos[w] > pos[v]) for v in g.vertices()}
        for u in g.vertices():
            for v in g.vertices():
                if u == v or v in g.adj(u):
                    continue
                qq = len(later[u] & later[v])
                qn = len(later[u] & g.adj(v))
                if not (qq <= qn <= wc - 1):
                    problems.append(
                        f"intersection invariant broken at ({u}, {v}): "
                        f"{qq} <= {qn} <= {wc - 1} fails")
        if problems:
            rec.fail("; ".join(problems), from_problem(g))
        else:
            rec.ok()
    return rec.result()


# ---------------------------------------------------------------------------
# suite 2: rule safety


def _answer(inst) -> bool:
    """A decision's answer, else the oracle's under a 12-vertex cap."""
    if isinstance(inst, Decided):
        return inst.answer
    return solve_exact(inst, max_n=12).answer


class RuleCase(Record):
    __slots__ = ("name", "sample", "step", "pipeline")
    name: str
    sample: Callable[[random.Random], object]
    step: Callable[[object], tuple]
    pipeline: Callable[[object], tuple]


def _sample_capvc(rng: random.Random):
    n = rng.randint(1, 11)
    g = _random_graph(rng, n, rng.choice((0.15, 0.3, 0.5)))
    cap = tuple(rng.randint(0, 4) for _ in range(n))
    return CapVcInstance(g, cap, rng.randint(0, 4))


def _sample_convc(rng: random.Random):
    n = rng.randint(1, 11)
    g = _random_graph(rng, n, rng.choice((0.15, 0.3, 0.5)))
    return ConVcInstance(g, rng.randint(0, 4))


def _sample_annotated(rng: random.Random):
    n = rng.randint(1, 11)
    g = _random_graph(rng, n, rng.choice((0.15, 0.3, 0.5)))
    red = frozenset(rng.sample(range(n), rng.randint(0, min(2, n))))
    return AnnotatedConVcInstance(g, red, rng.randint(0, 4))


def _sample_annotated_connected(rng: random.Random):
    n = rng.randint(3, 11)
    g = _random_connected(rng, n, rng.choice((0.15, 0.3, 0.5)))
    red = frozenset(rng.sample(range(n), rng.randint(0, min(2, n))))
    return AnnotatedConVcInstance(g, red, rng.randint(0, 4))


def _sample_im(rng: random.Random):
    n = rng.randint(1, 11)
    g = _random_graph(rng, n, rng.choice((0.15, 0.3, 0.5)))
    return ImInstance(g, rng.randint(0, 4))


def _sample_ds(rng: random.Random):
    return DsInstance(_random_split(rng, 11), rng.randint(0, 4))


def _sample_ds_no_isolated(rng: random.Random):
    # the dominated-independent rule insists on isolated-free input
    while True:
        g = _random_split(rng, 11)
        iso = [v for v in g.vertices() if g.degree(v) == 0]
        if iso:
            g, _ = delete_vertices(g, iso)
        if g.n:
            return DsInstance(g, rng.randint(0, 4))


def _sample_coc(rng: random.Random):
    n = rng.randint(1, 11)
    g = _random_graph(rng, n, rng.choice((0.15, 0.3, 0.5)))
    return CocInstance(g, rng.randint(1, 2), rng.randint(0, 4))


RULE_CASES: tuple[RuleCase, ...] = (
    RuleCase("capvc-twin-crown", _sample_capvc, twin_crown_rule, kernelize_capvc),
    RuleCase("convc-twinset", _sample_convc, twinset_rule, kernelize_convc),
    RuleCase("convc-isolated", _sample_annotated, trivial_rules, kernelize_convc_annotated),
    RuleCase("convc-simplicial", _sample_annotated_connected, simplicial_rule,
             kernelize_convc_annotated),
    RuleCase("im-dense-posterior", _sample_im, dense_posterior_rule, kernelize_im),
    RuleCase("im-lp-threshold", _sample_im, lp_threshold_rule, kernelize_im),
    RuleCase("im-twin", _sample_im, im_twin_rule, kernelize_im),
    RuleCase("ds-isolated", _sample_ds, isolated_rule, kernelize_ds_split),
    RuleCase("ds-covers-clique", _sample_ds, covers_clique_rule, kernelize_ds_split),
    RuleCase("ds-dominated-clique", _sample_ds, dominated_clique_vertex_rule, kernelize_ds_split),
    RuleCase("ds-dominated-independent", _sample_ds_no_isolated,
             dominated_independent_vertex_rule, kernelize_ds_split),
    RuleCase("ds-sunflower", _sample_ds, sunflower_rule, kernelize_ds_split),
    RuleCase("coc-small-component", _sample_coc, small_component_rule, kernelize_coc),
    RuleCase("coc-component-twin", _sample_coc, component_twin_rule, kernelize_coc),
)


def suite_rule_safety(trials_per_rule: int = 1000, seed: int = 0,
                      rule_overrides: dict[str, Callable] | None = None) -> SuiteResult:
    """Answer preservation of every reduction rule, one step and to exhaustion.

    rule_overrides swaps in a replacement single-step function by case name;
    the negative-control test uses it to check the suite catches an unsound
    rule.
    """
    rec = _Recorder("rule-safety")
    overrides = rule_overrides or {}
    unknown = set(overrides) - {case.name for case in RULE_CASES}
    if unknown:
        raise ValueError(f"unknown rule names: {sorted(unknown)}")
    for case in RULE_CASES:
        step = overrides.get(case.name, case.step)
        rng = random.Random(f"verify:rules:{case.name}:{seed}")
        for _ in range(trials_per_rule):
            if rec.saturated:
                break
            inst = case.sample(rng)
            before = _answer(inst)
            stepped, entry = step(inst)
            after_step = _answer(stepped)
            reduced, _trace = case.pipeline(inst)
            after_pipeline = _answer(reduced)
            if before != after_step:
                rec.fail(f"{case.name}: single step flipped the answer "
                         f"({before} -> {after_step}, entry {entry})",
                         from_problem(inst))
            elif before != after_pipeline:
                rec.fail(f"{case.name}: pipeline flipped the answer "
                         f"({before} -> {after_pipeline})",
                         from_problem(inst))
            else:
                rec.ok()
    return rec.result()


# ---------------------------------------------------------------------------
# suite 3: set-cover gadget equivalence


def _random_cover_family(rng: random.Random, universe: int, lam: int, count: int):
    pool = list(combinations(range(universe), lam))
    rng.shuffle(pool)
    return [frozenset(s) for s in pool[:count]]


def suite_setcover_gadget(trials: int = 200, seed: int = 0) -> SuiteResult:
    """Generated capacitated instances answer exactly like the disjoint
    set-cover oracle, stay 7-closed, and hit the edge-count formula."""
    rec = _Recorder("setcover-gadget")
    rng = random.Random(f"verify:gadget:{seed}")
    lam = 3
    for t in range(trials):
        if rec.saturated:
            break
        k = 2 if t % 3 == 2 else 1
        universe = lam * k
        nsets = rng.randint(0, 6 if k == 1 else 8)
        family = _random_cover_family(rng, universe, lam, nsets)
        inst = gen_capvc_lowerbound(universe, family, lam, k)
        want = solve_exact_set_cover(universe, family, lam, k).answer
        got = solve_capvc_exact(inst.graph, inst.cap, inst.k, max_n=32).answer
        problems = []
        if want != got:
            problems.append(f"gadget answer {got} != set cover answer {want}")
        expected_m = 2 * lam * k + 2 * lam * len(family) + lam * k * (2 * lam * k - 1)
        if inst.graph.m != expected_m:
            problems.append(f"edge count {inst.graph.m} != formula {expected_m}")
        cl = closure_number(inst.graph)
        if cl > 2 * lam + 1:
            problems.append(f"closure number {cl} above {2 * lam + 1}")
        if problems:
            rec.fail(f"k={k}, family={sorted(map(sorted, family))}: " + "; ".join(problems),
                     from_problem(inst))
        else:
            rec.ok()
    return rec.result()


# ---------------------------------------------------------------------------
# suite 4: composition patterns


def suite_composition_patterns() -> SuiteResult:
    """All 16 yes/no input patterns for the q=2, t=2, k=1 composition, plus
    the selector-path layout: the host has an independent set of the target
    size exactly when some input is a yes."""
    rec = _Recorder("composition-patterns")
    yes = (Graph(1), [(0,)])
    no = (Graph(0), [()])
    q, t, k = 2, 2, 1
    for bits in range(16):
        pattern = [(bits >> i) & 1 for i in range(4)]
        instances = [yes if b else no for b in pattern]
        host, budget = gen_is_composition(instances, t, q, k)
        want = any(pattern)
        got = solve_is_exact(host, budget, max_n=24).answer
        if got != want:
            rec.fail(f"pattern {pattern}: host answer {got}, expected {want}",
                     from_problem(IsInstance(host, (0,) * host.n, budget)))
            continue
        layout = composition_layout(instances, t, q, k)
        problems = []
        if budget != q * k * t - q * k + k:
            problems.append("budget formula mismatch")
        paths = layout["path_ids"]
        if set(paths) != {(0, r) for r in range(q)} or \
                any(len(p) != 2 * t - 2 for p in paths.values()):
            problems.append("selector path sizes wrong")
        keys = set(layout["groups"])
        expect_keys = {(0, r, j) for r in range(q) for j in range(1, t + 1)}
        if keys != expect_keys:
            problems.append("group label scheme wrong")
        for (layer, r, j), group in layout["groups"].items():
            path = paths[(layer, r)]
            if j == 1 and group != (path[0],):
                problems.append(f"group ({layer},{r},1) is not the path head")
            if j == t and group != (path[-1],):
                problems.append(f"group ({layer},{r},{t}) is not the path tail")
        if problems:
            rec.fail(f"pattern {pattern}: " + "; ".join(problems))
        else:
            rec.ok()
    return rec.result()


# ---------------------------------------------------------------------------
# suite 5: kernel size bounds


def _sized_capvc(rng: random.Random):
    n = rng.randint(3, 9)
    g = _random_graph(rng, n, rng.choice((0.2, 0.4, 0.7)))
    if g.m > 16:
        return None
    k = rng.randint(1, 3)
    return CapVcInstance(g, tuple(rng.randint(0, 3) for _ in range(n)), k)


def _sized_convc(rng: random.Random):
    n = rng.randint(3, 10)
    g = _random_graph(rng, n, rng.choice((0.2, 0.4, 0.7)))
    return ConVcInstance(g, rng.randint(1, 3))


def _sized_ds(rng: random.Random):
    return DsInstance(_random_split(rng, 10), rng.randint(1, 3))


def _sized_annotated(rng: random.Random):
    n = rng.randint(3, 10)
    g = _random_graph(rng, n, rng.choice((0.2, 0.4, 0.7)))
    red = frozenset(rng.sample(range(n), rng.randint(0, 2)))
    return AnnotatedConVcInstance(g, red, rng.randint(1, 3))


def suite_kernel_size_bounds(trials: int = 150, seed: int = 0) -> SuiteResult:
    """Explicit size bounds on reduced yes-instances, one family per kernel:
    capacitated and connected vertex cover against the neighborhood-class
    bound, the split dominating set against the factorial bound, and the
    annotated connected cover against the quadratic closure bound."""
    rec = _Recorder("kernel-size-bounds")
    rng = random.Random(f"verify:sizes:{seed}")
    # built per call, so functions rebound by a tracer are the ones called
    families = (
        ("capvc", _sized_capvc, kernelize_capvc, size_bound_report),
        ("convc", _sized_convc, kernelize_convc, twinset_bound_report),
        ("ds-split", _sized_ds, kernelize_ds_split, split_bound_report),
        ("annotated", _sized_annotated, kernelize_convc_annotated, annotated_bound_report),
    )
    for label, sample, kernelize, bound_report in families:
        for _ in range(trials):
            if rec.saturated:
                break
            inst = sample(rng)
            if inst is None:
                continue
            out, _ = kernelize(inst)
            if isinstance(out, Decided) or not _answer(out):
                continue
            report = bound_report(out)
            if report["verdict"] == "within":
                rec.ok()
            else:
                rec.fail(f"{label} reduced instance exceeds its size bound: {report}",
                         from_problem(out))
    return rec.result()


# ---------------------------------------------------------------------------
# suite 6: biclique-freeness certificate


def suite_biclique_certificate(trials: int = 500, seed: int = 0) -> SuiteResult:
    """No graph contains a complete bipartite subgraph with both sides of
    size weak closure + clique number + 1."""
    rec = _Recorder("biclique-certificate")
    rng = random.Random(f"verify:biclique:{seed}")
    for t in range(trials):
        if rec.saturated:
            break
        n = rng.randint(2, 18)
        style = t % 3
        if style == 0:
            g = gen_random_bipartite(n, rng.randrange(2 ** 30))
        elif style == 1:
            g = _random_graph(rng, n, rng.choice((0.15, 0.25)))
        else:
            g = _random_clique_union(rng, n)
        report = biclique_freeness_report(g)
        if report["consistent"]:
            rec.ok()
        else:
            rec.fail(f"biclique found: {report}", from_problem(g))
    return rec.result()


# ---------------------------------------------------------------------------
# suite 7: ramsey guarantee


def suite_ramsey_guarantee(seed: int = 0, samples_per_size: int = 3) -> SuiteResult:
    """Above the guarantee threshold a witness must come back and validate."""
    rec = _Recorder("ramsey-guarantee")
    rng = random.Random(f"verify:ramsey:{seed}")
    graphs: list[Graph] = []
    for target in (1, 2):
        for n in range(1, 21):
            for _ in range(samples_per_size):
                try:
                    g = gen_random_weakly_closed(n, target, rng.randrange(2 ** 30))
                except ValueError:
                    continue
                graphs.append(g)
    for g in graphs:
        wc = weak_closure_ordering(g).weak_closure
        for a in range(1, 5):
            for b in range(1, 5):
                if g.n < r_gamma_bound(a, b, wc):
                    continue
                if rec.saturated:
                    break
                w = clique_or_independent_set(g, a, b)
                if w is None:
                    rec.fail(f"no witness on n={g.n}, weak closure {wc}, "
                             f"sizes ({a}, {b})", from_problem(g))
                    continue
                size_ok = len(w.vertices) == (a if w.kind == "clique" else b)
                if not (size_ok and validate_witness(g, w)):
                    rec.fail(f"invalid witness {w} on n={g.n}, sizes ({a}, {b})",
                             from_problem(g))
                else:
                    rec.ok()
    return rec.result()


# ---------------------------------------------------------------------------
# suite 8: vertex cover LP exactness


def _brute_vclp_total2(g: Graph) -> int:
    """Minimum doubled objective over all feasible {0, 1/2, 1} assignments,
    by branch and bound over vertices in id order."""
    best = 2 * g.n
    adj = [sorted(g.adj(v)) for v in range(g.n)]
    value = [0] * g.n

    def rec_assign(v: int, total: int) -> None:
        nonlocal best
        if total >= best:
            return
        if v == g.n:
            best = total
            return
        for x in (0, 1, 2):
            ok = True
            for u in adj[v]:
                if u < v and value[u] + x < 2:
                    ok = False
                    break
            if ok:
                value[v] = x
                rec_assign(v + 1, total + x)
        value[v] = 0

    rec_assign(0, 0)
    return best


def suite_vclp_exactness(trials: int = 300, seed: int = 0) -> SuiteResult:
    """Combinatorial LP solver against exhaustive half-integral search."""
    rec = _Recorder("vclp-exactness")
    rng = random.Random(f"verify:vclp:{seed}")
    fixed = [Graph(0), Graph(1), path_graph(4), cycle_graph(5), cycle_graph(6),
             complete_graph(4), gen_k_ab(3, 3), gen_k_ab(2, 5), path_graph(10)]
    pool: list[Graph] = list(fixed)
    for _ in range(trials):
        n = rng.randint(0, 10)
        pool.append(_random_graph(rng, n, rng.choice((0.2, 0.4, 0.6, 0.8))))
    for g in pool:
        if rec.saturated:
            break
        sol = vclp_half_integral(g)
        problems = []
        if not vclp_is_feasible(g, sol.value2):
            problems.append("returned assignment infeasible")
        brute2 = _brute_vclp_total2(g)
        if sum(sol.value2) != brute2:
            problems.append(f"objective {sum(sol.value2)}/2 != optimum {brute2}/2")
        recomposed = len(sol.halves) + 2 * len(sol.ones)
        if recomposed != sum(sol.value2):
            problems.append("objective does not match halves/ones decomposition")
        if problems:
            rec.fail("; ".join(problems), from_problem(g))
        else:
            rec.ok()
    return rec.result()


# ---------------------------------------------------------------------------
# suite 9: determinism


class _CommandFailed(Exception):
    """A child `closurekernels` process exited with a nonzero code."""


def _kernel_command_bytes(workdir: str, hashseeds: tuple[str, ...]) -> list[tuple[bytes, bytes]]:
    """The reduced file and trace bytes of the kernel command on
    workdir/in.ck, once per hash seed. The children run side by side; when
    one fails, the others are killed and reaped before _CommandFailed is
    raised."""
    src = os.path.join(workdir, "in.ck")
    paths = [(os.path.join(workdir, f"out-{seed}.ck"), os.path.join(workdir, f"trace-{seed}.json"))
             for seed in hashseeds]
    procs: list[subprocess.Popen] = []
    try:
        for seed, (out, trace) in zip(hashseeds, paths):
            procs.append(subprocess.Popen(
                [sys.executable, "-m", "closurekernels", "kernel", src,
                 "--out", out, "--trace", trace],
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                env=dict(os.environ, PYTHONHASHSEED=seed)))
        for proc in procs:
            _, err = proc.communicate()
            if proc.returncode != 0:
                lines = err.decode(errors="replace").strip().splitlines()
                raise _CommandFailed(f"kernel command exited with code {proc.returncode}: "
                                     + (lines[-1] if lines else "no error output"))
    finally:
        for proc in procs:
            if proc.returncode is None:
                proc.kill()
                proc.communicate()
    results = []
    for out, trace in paths:
        with open(out, "rb") as fh:
            reduced = fh.read()
        with open(trace, "rb") as fh:
            results.append((reduced, fh.read()))
    return results


def suite_determinism(seed: int = 0) -> SuiteResult:
    """Byte-identical generator output and kernel command output across
    repeat runs (the command twice, side by side, in fresh interpreters
    with different hash seeds)."""
    rec = _Recorder("determinism")

    pairs = [
        (gen_random_split(9, seed), gen_random_split(9, seed)),
        (gen_random_bipartite(10, seed + 1), gen_random_bipartite(10, seed + 1)),
        (gen_random_weakly_closed(8, 2, seed), gen_random_weakly_closed(8, 2, seed)),
        (gen_k_ab(2, 5), gen_k_ab(2, 5)),
    ]
    family = [frozenset({0, 1, 2}), frozenset({2, 3, 4}), frozenset({3, 4, 5})]
    a1 = gen_capvc_lowerbound(6, family, 3, 2)
    a2 = gen_capvc_lowerbound(6, family, 3, 2)
    pairs.append((a1.graph, a2.graph))
    micro = [(Graph(1), [(0,)]), (Graph(0), [()])] * 2
    h1, _ = gen_is_composition(micro, 2, 2, 1)
    h2, _ = gen_is_composition(micro, 2, 2, 1)
    pairs.append((h1, h2))
    for first, second in pairs:
        one = write_instance(from_problem(first))
        two = write_instance(from_problem(second))
        if one != two:
            rec.fail("generator output differs between repeat builds")
        else:
            rec.ok()

    rng = random.Random(f"verify:determinism:{seed}")
    g = _random_graph(rng, 9, 0.4)
    text = write_instance(InstanceFile(kind="convc", graph=g, k=3))
    with tempfile.TemporaryDirectory() as workdir:
        with open(os.path.join(workdir, "in.ck"), "w") as fh:
            fh.write(text)
        try:
            first, second = _kernel_command_bytes(workdir, ("1", "2"))
        except _CommandFailed as exc:
            rec.fail(str(exc))
            return rec.result()
    if first != second:
        rec.fail("kernel command output differs between runs")
    else:
        rec.ok()
    return rec.result()


# ---------------------------------------------------------------------------
# registry


SUITES: dict[str, Callable[..., SuiteResult]] = {
    "parameter-engines": suite_parameter_engines,
    "rule-safety": suite_rule_safety,
    "setcover-gadget": suite_setcover_gadget,
    "composition-patterns": suite_composition_patterns,
    "kernel-size-bounds": suite_kernel_size_bounds,
    "biclique-certificate": suite_biclique_certificate,
    "ramsey-guarantee": suite_ramsey_guarantee,
    "vclp-exactness": suite_vclp_exactness,
    "determinism": suite_determinism,
}


def run_suite(name: str, trials: int | None = None, seed: int = 0) -> SuiteResult:
    """Run one suite by registry name, scaling trial counts when given."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    fn = SUITES[name]
    kwargs: dict = {}
    if name not in ("composition-patterns",):
        kwargs["seed"] = seed
    if trials is not None:
        if name == "rule-safety":
            kwargs["trials_per_rule"] = trials
        elif name == "ramsey-guarantee":
            kwargs["samples_per_size"] = max(1, trials // 20)
        elif name not in ("composition-patterns", "determinism"):
            kwargs["trials"] = trials
    return fn(**kwargs)
