"""In-process tracing of closurekernels from the outside.

`Tracer.install()` replaces each function named in `LAYERS` by a wrapper that
records a span (name, start, end, parent span, op id), in every closurekernels
module namespace that holds the function. Modules import functions by name,
so rebinding all of them is what makes nested calls, such as the im kernel
calling the closure engine twice per round, show up as child spans.
`uninstall()` puts the originals back.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types

# (module, function, span name); a rule's span name ends in "rule", which
# makes its fires count toward the module's fire rate.
LAYERS = [
    ("instance_io", "parse_instance", "instance_io.parse"),
    ("instance_io", "write_instance", "instance_io.write"),
    ("closure", "weak_closure_ordering", "closure.weak_closure_ordering"),
    ("closure", "closure_number", "closure.closure_number"),
    ("closure", "degeneracy", "closure.degeneracy"),
    ("closure", "count_maximal_cliques", "closure.count_maximal_cliques"),
    ("graph", "induced_subgraph", "graph.induced_subgraph"),
    ("capvc", "kernelize_capvc", "capvc.kernelize"),
    ("capvc", "twin_crown_rule", "capvc.twin_crown_rule"),
    ("convc", "kernelize_convc", "convc.kernelize"),
    ("convc", "kernelize_convc_annotated", "convc.annotated"),
    ("convc", "kernelize_coc", "convc.coc"),
    ("convc", "twinset_rule", "convc.twinset_rule"),
    ("convc", "trivial_rules", "convc.trivial_rule"),
    ("convc", "simplicial_rule", "convc.simplicial_rule"),
    ("convc", "small_component_rule", "convc.small_component_rule"),
    ("convc", "component_twin_rule", "convc.component_twin_rule"),
    ("induced_matching", "kernelize_im", "induced_matching.kernelize"),
    ("induced_matching", "lp_threshold_rule", "induced_matching.lp_threshold_rule"),
    ("induced_matching", "dense_posterior_rule", "induced_matching.dense_posterior_rule"),
    ("induced_matching", "im_twin_rule", "induced_matching.twin_rule"),
    ("domset", "kernelize_ds_split", "domset.kernelize"),
    ("domset", "good_ordering", "domset.good_ordering"),
    ("domset", "isolated_rule", "domset.isolated_rule"),
    ("domset", "covers_clique_rule", "domset.covers_clique_rule"),
    ("domset", "dominated_clique_vertex_rule", "domset.dominated_clique_vertex_rule"),
    ("domset", "dominated_independent_vertex_rule",
     "domset.dominated_independent_vertex_rule"),
    ("domset", "sunflower_rule", "domset.sunflower_rule"),
    ("combinatorics", "vclp_half_integral", "combinatorics.vclp_half_integral"),
    ("combinatorics", "maximum_matching", "combinatorics.maximum_matching"),
    ("combinatorics", "find_sunflower", "combinatorics.find_sunflower"),
    ("oracles", "solve_capvc_exact", "oracles.capvc"),
    ("oracles", "solve_convc_exact", "oracles.convc"),
    ("oracles", "solve_coc_exact", "oracles.coc"),
    ("oracles", "solve_im_exact", "oracles.im"),
    ("oracles", "solve_ds_exact", "oracles.ds"),
    ("oracles", "solve_is_exact", "oracles.is"),
    ("oracles", "solve_multicolored_is_exact", "oracles.multicolored_is"),
    ("oracles", "solve_exact_set_cover", "oracles.set_cover"),
    ("verify", "run_suite", "verify"),
    ("generators", "gen_random_split", "generators.split"),
    ("generators", "gen_random_bipartite", "generators.bipartite"),
    ("generators", "gen_random_weakly_closed", "generators.weakly_closed"),
    ("generators", "gen_capvc_lowerbound", "generators.capvc_lowerbound"),
    ("generators", "gen_is_composition", "generators.is_composition"),
]

KERNEL_MODULES = ("capvc", "convc", "induced_matching", "domset")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []    # (name, start, end, parent, op)
        self.notes: dict[int, object] = {}  # span index -> counted result detail
        self.op = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, notes, stack = self.spans, self.notes, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            note = _note(name, args, result)
            if note is not None:
                notes[idx] = note
            return result

        return traced

    def install(self) -> None:
        # cli imports every other module, so all namespaces exist below
        importlib.import_module("closurekernels.cli")
        originals = {}
        for module, func, name in LAYERS:
            fn = getattr(sys.modules[f"closurekernels.{module}"], func)
            originals[fn] = self._wrap(name, fn)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("closurekernels"):
                continue
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in originals:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, originals[value])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps([i, name, start, end, parent, op]) + "\n")


def _note(name: str, args, result):
    """What a span's result contributes to the per-layer counts."""
    if name.startswith("oracles."):
        return sum(result.stats.values())
    if name.endswith("rule"):
        return result[1] is not None
    if name.endswith((".kernelize", ".annotated", ".coc")):
        out = result[0]
        n_out = out.graph.n if hasattr(out, "graph") else None
        return (args[0].graph.n, n_out, len(result[1]))
    if name == "verify":
        return (args[0], result.checked)
    if name == "instance_io.parse":
        return len(args[0])
    if name == "instance_io.write":
        return len(result)
    return None


def layer_metrics(tracer: Tracer, op_wall: float) -> dict[str, float]:
    """Per-layer totals from one traced pass whose ops took op_wall seconds."""
    spans, notes = tracer.spans, tracer.notes
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    top = 0.0
    for name, start, end, parent, _op in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if parent is None:
            top += end - start

    def s(name):
        return total.get(name, 0.0)

    out = {
        "instance_io.parse_s": s("instance_io.parse"),
        "instance_io.write_s": s("instance_io.write"),
        "instance_io.bytes": sum(v for i, v in notes.items()
                                 if spans[i][0].startswith("instance_io.")),
        "closure.weak_closure_ordering.s": s("closure.weak_closure_ordering"),
        "closure.weak_closure_ordering.calls": calls.get("closure.weak_closure_ordering", 0),
        "closure.closure_number.s": s("closure.closure_number"),
        "closure.degeneracy.s": s("closure.degeneracy"),
        "closure.count_maximal_cliques.s": s("closure.count_maximal_cliques"),
        "graph.induced_subgraph.s": s("graph.induced_subgraph"),
        "graph.induced_subgraph.calls": calls.get("graph.induced_subgraph", 0),
        "convc.annotated.s": s("convc.annotated"),
        "convc.coc.s": s("convc.coc"),
        "induced_matching.lp_threshold_rule.s": s("induced_matching.lp_threshold_rule"),
        "induced_matching.dense_posterior_rule.s": s("induced_matching.dense_posterior_rule"),
        "domset.good_ordering.s": s("domset.good_ordering"),
        "domset.sunflower_rule.s": s("domset.sunflower_rule"),
        "combinatorics.vclp_half_integral.s": s("combinatorics.vclp_half_integral"),
        "combinatorics.vclp_half_integral.calls": calls.get("combinatorics.vclp_half_integral", 0),
        "combinatorics.maximum_matching.s": s("combinatorics.maximum_matching"),
        "combinatorics.find_sunflower.s": s("combinatorics.find_sunflower"),
        "generators.s": sum(v for k, v in total.items() if k.startswith("generators.")),
        "trace.coverage_frac": top / op_wall if op_wall else 0.0,
    }
    for module in KERNEL_MODULES:
        fired = [v for i, v in notes.items()
                 if spans[i][0].startswith(module + ".") and spans[i][0].endswith("rule")]
        sizes = [v for i, v in notes.items()
                 if spans[i][0].startswith(module + ".") and isinstance(v, tuple)
                 and v[1] is not None]
        out[f"{module}.kernelize.s"] = s(f"{module}.kernelize")
        out[f"{module}.fires"] = sum(fired)
        out[f"{module}.rule_calls"] = len(fired)
        out[f"{module}.fire_frac"] = sum(fired) / len(fired) if fired else 0.0
        n_in = sum(v[0] for v in sizes)
        out[f"{module}.kept_frac"] = sum(v[1] for v in sizes) / n_in if n_in else 0.0
    oracle = {name: secs for name, secs in total.items() if name.startswith("oracles.")}
    out.update({f"{name}.s": secs for name, secs in oracle.items()})
    work = sum(v for i, v in notes.items() if spans[i][0].startswith("oracles."))
    out["oracles.work"] = work
    out["oracles.work_per_s"] = work / sum(oracle.values()) if oracle else 0.0
    checks = 0
    suite_s = 0.0
    for i, v in notes.items():
        if spans[i][0] == "verify":
            suite, checked = v
            out[f"verify.{suite}.s"] = out.get(f"verify.{suite}.s", 0.0) \
                + spans[i][2] - spans[i][1]
            suite_s += spans[i][2] - spans[i][1]
            checks += checked
    out["verify.checks"] = checks
    out["verify.checks_per_s"] = checks / suite_s if suite_s else 0.0
    return out


def self_times(tracer: Tracer) -> list[tuple[str, float]]:
    """Per span name, time not covered by child spans; largest first."""
    child = [0.0] * len(tracer.spans)
    for name, start, end, parent, _op in tracer.spans:
        if parent is not None:
            child[parent] += end - start
    own: dict[str, float] = {}
    for i, (name, start, end, _parent, _op) in enumerate(tracer.spans):
        own[name] = own.get(name, 0.0) + (end - start) - child[i]
    return sorted(own.items(), key=lambda kv: -kv[1])
