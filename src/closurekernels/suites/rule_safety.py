"""Suite 2: rule safety. Every reduction rule, one step and to exhaustion,
must keep the oracle's answer."""

from __future__ import annotations

import random
from typing import Callable

from .. import _lazy, capvc, convc, domset, induced_matching
from ..graph import Graph, delete_vertices
from ..verify import SuiteResult, _answer, _draw_graph, _random_red, _random_split

instance_io = _lazy("instance_io")


_RULE_DENSITIES = (0.15, 0.3, 0.5)


def _sample_capvc(rng: random.Random):
    g = _draw_graph(rng, 1, 11, _RULE_DENSITIES)
    cap = tuple(rng.randint(0, 4) for _ in range(g.n))
    return capvc.CapVcInstance(g, cap, rng.randint(0, 4))


def _sample_convc(rng: random.Random):
    return convc.ConVcInstance(_draw_graph(rng, 1, 11, _RULE_DENSITIES), rng.randint(0, 4))


def _sample_annotated(rng: random.Random):
    g = _draw_graph(rng, 1, 11, _RULE_DENSITIES)
    return convc.AnnotatedConVcInstance(g, _random_red(rng, g.n), rng.randint(0, 4))


def _sample_annotated_connected(rng: random.Random):
    g = _draw_graph(rng, 3, 11, _RULE_DENSITIES)
    # an edge to a random earlier vertex for every vertex but the first
    edges = set(g.edges()) | {(rng.randrange(v), v) for v in range(1, g.n)}
    g = Graph(g.n, sorted(edges))
    return convc.AnnotatedConVcInstance(g, _random_red(rng, g.n), rng.randint(0, 4))


def _sample_im(rng: random.Random):
    return induced_matching.ImInstance(_draw_graph(rng, 1, 11, _RULE_DENSITIES),
                                       rng.randint(0, 4))


def _sample_ds(rng: random.Random):
    return domset.DsInstance(_random_split(rng, 11), rng.randint(0, 4))


def _sample_ds_no_isolated(rng: random.Random):
    # the dominated-independent rule insists on isolated-free input
    while True:
        g = _random_split(rng, 11)
        iso = [v for v in g.vertices() if g.degree(v) == 0]
        if iso:
            g, _ = delete_vertices(g, iso)
        if g.n:
            return domset.DsInstance(g, rng.randint(0, 4))


def _sample_coc(rng: random.Random):
    g = _draw_graph(rng, 1, 11, _RULE_DENSITIES)
    return convc.CocInstance(g, rng.randint(1, 2), rng.randint(0, 4))


def _rule_cases() -> tuple[tuple, ...]:
    """The rule-safety cases, (name, sample, step, pipeline). Built per
    call, like kernel-size-bounds' families, so that a function rebound by
    a tracer is the one called."""
    cv, im, ds = convc, induced_matching, domset
    return (
        ("capvc-twin-crown", _sample_capvc, capvc.twin_crown_rule, capvc.kernelize_capvc),
        ("convc-twinset", _sample_convc, cv.twinset_rule, cv.kernelize_convc),
        ("convc-isolated", _sample_annotated, cv.trivial_rules, cv.kernelize_convc_annotated),
        ("convc-simplicial", _sample_annotated_connected, cv.simplicial_rule,
         cv.kernelize_convc_annotated),
        ("im-dense-posterior", _sample_im, im.dense_posterior_rule, im.kernelize_im),
        ("im-lp-threshold", _sample_im, im.lp_threshold_rule, im.kernelize_im),
        ("im-twin", _sample_im, im.im_twin_rule, im.kernelize_im),
        ("ds-isolated", _sample_ds, ds.isolated_rule, ds.kernelize_ds_split),
        ("ds-covers-clique", _sample_ds, ds.covers_clique_rule, ds.kernelize_ds_split),
        ("ds-dominated-clique", _sample_ds, ds.dominated_clique_vertex_rule,
         ds.kernelize_ds_split),
        ("ds-dominated-independent", _sample_ds_no_isolated,
         ds.dominated_independent_vertex_rule, ds.kernelize_ds_split),
        ("ds-sunflower", _sample_ds, ds.sunflower_rule, ds.kernelize_ds_split),
        ("coc-small-component", _sample_coc, cv.small_component_rule, cv.kernelize_coc),
        ("coc-component-twin", _sample_coc, cv.component_twin_rule, cv.kernelize_coc),
    )


def suite_rule_safety(trials: int = 1000, seed: int = 0,
                      rule_overrides: dict[str, Callable] | None = None) -> SuiteResult:
    """Answer preservation of every reduction rule, one step and to
    exhaustion, on `trials` instances per rule. Each distinct instance of a
    trial is answered once: a step that does not fire, or a pipeline that
    ends on the instance or the stepped one, reuses that answer.

    rule_overrides swaps in a replacement single-step function by case name;
    the negative-control test uses it to check the suite catches an unsound
    rule.
    """
    rec = SuiteResult("rule-safety")
    overrides = rule_overrides or {}
    cases = _rule_cases()
    unknown = set(overrides) - {name for name, *_ in cases}
    if unknown:
        raise ValueError(f"unknown rule names: {sorted(unknown)}")
    for name, sample, step, pipeline in cases:
        step = overrides.get(name, step)
        rng = random.Random(f"verify:rules:{name}:{seed}")
        for _ in range(trials):
            if rec.saturated:
                break
            inst = sample(rng)
            before = _answer(inst)
            stepped, entry = step(inst)
            after_step = before if stepped == inst else _answer(stepped)
            reduced, _trace = pipeline(inst)
            if reduced == inst:
                after_pipeline = before
            elif reduced == stepped:
                after_pipeline = after_step
            else:
                after_pipeline = _answer(reduced)
            if before != after_step:
                rec.fail(f"{name}: single step flipped the answer "
                         f"({before} -> {after_step}, entry {entry})",
                         instance_io.from_problem(inst))
            elif before != after_pipeline:
                rec.fail(f"{name}: pipeline flipped the answer "
                         f"({before} -> {after_pipeline})",
                         instance_io.from_problem(inst))
            else:
                rec.ok()
    return rec
