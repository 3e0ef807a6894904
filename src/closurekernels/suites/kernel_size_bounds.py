"""Suite 5: explicit size bounds on reduced yes-instances."""

from __future__ import annotations

import random

from .. import _lazy, capvc, convc, domset
from ..reduction import Decided
from ..verify import SuiteResult, _answer, _draw_graph, _random_red, _random_split

instance_io = _lazy("instance_io")


_SIZED_DENSITIES = (0.2, 0.4, 0.7)


def _sized_capvc(rng: random.Random):
    g = _draw_graph(rng, 3, 9, _SIZED_DENSITIES)
    if g.m > 16:
        return None
    k = rng.randint(1, 3)
    return capvc.CapVcInstance(g, tuple(rng.randint(0, 3) for _ in range(g.n)), k)


def _sized_convc(rng: random.Random):
    return convc.ConVcInstance(_draw_graph(rng, 3, 10, _SIZED_DENSITIES), rng.randint(1, 3))


def _sized_ds(rng: random.Random):
    return domset.DsInstance(_random_split(rng, 10), rng.randint(1, 3))


def _sized_annotated(rng: random.Random):
    g = _draw_graph(rng, 3, 10, _SIZED_DENSITIES)
    return convc.AnnotatedConVcInstance(g, _random_red(rng, g.n), rng.randint(1, 3))


def suite_kernel_size_bounds(trials: int = 150, seed: int = 0) -> SuiteResult:
    """Explicit size bounds on reduced yes-instances, one family per kernel:
    capacitated and connected vertex cover against the neighborhood-class
    bound, the split dominating set against the factorial bound, and the
    annotated connected cover against the quadratic closure bound."""
    rec = SuiteResult("kernel-size-bounds")
    rng = random.Random(f"verify:sizes:{seed}")
    # built per call, so functions rebound by a tracer are the ones called
    families = (
        ("capvc", _sized_capvc, capvc.kernelize_capvc, capvc.size_bound_report),
        ("convc", _sized_convc, convc.kernelize_convc, convc.twinset_bound_report),
        ("ds-split", _sized_ds, domset.kernelize_ds_split, domset.split_bound_report),
        ("annotated", _sized_annotated, convc.kernelize_convc_annotated,
         convc.annotated_bound_report),
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
                         instance_io.from_problem(out))
    return rec
