"""The kernel subcommand: run a reduction pipeline and write the reduced
instance and its JSON trace."""

from __future__ import annotations

import json

from .. import _lazy
from ..cli import (
    KERNEL_PROBLEMS,
    UsageError,
    _emit,
    _load_problem,
    _read_instance,
    _say,
    _write_file,
)
from ..reduction import Decided

capvc = _lazy("capvc")
closure = _lazy("closure")
convc = _lazy("convc")
domset = _lazy("domset")
induced_matching = _lazy("induced_matching")
instance_io = _lazy("instance_io")

TRACE_SCHEMA_VERSION = 1


def _instance_facts(problem) -> dict:
    return {"n": problem.graph.n, "m": problem.graph.m, "k": problem.k, **problem.fields()}


def cmd_kernel(args) -> int:
    inst = _read_instance(args.path)
    problem_name = args.problem or inst.kind
    if problem_name not in KERNEL_PROBLEMS:
        raise UsageError(f"no kernel pipeline for kind {problem_name!r}")
    problem = _load_problem(args, inst, problem_name)

    mode = args.mode
    route = problem_name
    if problem_name == "convc":
        annotated = isinstance(problem, convc.AnnotatedConVcInstance)
        route = "convc-red" if annotated else f"convc-{mode}"
    if problem_name == "ds" and not domset.is_split(problem.graph):
        raise UsageError("ds kernel needs a split graph")
    # Only the chosen route's functions are looked up, so no other kernel
    # module is loaded, and they (like the closure engines below) are looked
    # up on their module per call, so a wrapper rebound over one (as
    # perfbench/tracing.py does) sees the call.
    pipeline, bound_report = {
        "capvc": lambda: (capvc.kernelize_capvc, capvc.size_bound_report),
        "convc-gamma": lambda: (convc.kernelize_convc, convc.twinset_bound_report),
        "convc-c": lambda: (convc.kernelize_convc_c, convc.annotated_bound_report),
        "convc-red": lambda: (convc.kernelize_convc_annotated,
                              convc.annotated_bound_report),
        "coc": lambda: (convc.kernelize_coc, None),
        "im": lambda: (induced_matching.kernelize_im, None),
        "ds": lambda: (domset.kernelize_ds_split, domset.split_bound_report),
    }[route]()
    # before the pipeline, so that the input's weak closure ordering is the
    # one its first round reuses, and the final graph's is still there for
    # the bound report
    g = problem.graph
    params = {
        "closure": closure.closure_number(g),
        "weak_closure": closure.weak_closure_ordering(g).weak_closure,
        "degeneracy": closure.degeneracy(g)[0],
    }
    out, rules = pipeline(problem)

    decided = None
    if isinstance(out, Decided):
        decided = {"answer": out.answer, "reason": out.reason}
        module = {"convc": convc, "im": induced_matching, "ds": domset}[problem_name]
        reduced_problem = module.decided_instance(out)
        bound = {"verdict": "decided"}
    else:
        # the closure-number route reduces in annotated form (its bound
        # applies to that form) and hands back a plain instance with pendant
        # leaves standing in for the red marks
        reduced_problem = convc.attach_leaves(out) if route == "convc-c" else out
        bound = bound_report(out) if bound_report else None

    trace = {
        "schema_version": TRACE_SCHEMA_VERSION,
        "problem": problem_name,
        "mode": mode if problem_name == "convc" else None,
        "input": _instance_facts(problem),
        "params": params,
        "rules": rules,
        "decided": decided,
        "output": _instance_facts(reduced_problem),
        "bound": bound,
    }
    _emit(instance_io.write_instance(instance_io.from_problem(reduced_problem)), args.out)
    trace_text = json.dumps(trace, sort_keys=True, indent=2) + "\n"
    if args.trace is not None:
        _write_file(args.trace, trace_text)
    if args.out is not None:
        applied = len(trace["rules"])
        tail = f", decided {'yes' if decided['answer'] else 'no'}" if decided else ""
        _say(f"kernel: {applied} rule applications, "
             f"{g.n} -> {reduced_problem.graph.n} vertices{tail}")
    return 0


def arguments(p) -> None:
    p.add_argument("problem", nargs="?", choices=KERNEL_PROBLEMS, metavar="problem",
                   help=f"problem to kernelize, one of {', '.join(KERNEL_PROBLEMS)} "
                        "(default: the file's kind)")
    p.add_argument("path", help="the instance file")
    p.add_argument("--mode", choices=("gamma", "c"), default="gamma",
                   help="convc route: weak-closure twin rule or closure-number "
                        "annotated pipeline (default gamma)")
    p.add_argument("--k", type=int, default=None, help="override the budget")
    p.add_argument("--ell", type=int, default=None,
                   help="override the component bound (coc only)")
    p.add_argument("--out", default=None,
                   help="write the reduced instance here instead of stdout")
    p.add_argument("--trace", default=None, help="write the JSON trace here")
    p.set_defaults(fn=cmd_kernel)
