"""Command-line front end.

Subcommands: params (parameter report), kernel (run a reduction pipeline and
emit the reduced instance plus a JSON trace), solve (exact oracle answer with
a validated witness), verify (randomized cross-checking suites), generate
(instance families, including the hard-instance constructions).

Exit codes are a stable contract: 0 success or decided, 1 verification suite
failure, 2 usage error (kind mismatches, oracle cap overruns, unwritable
output paths), 3 instance parse error, 4 internal error (an exception no other
code covers, such as a witness that fails its re-check; reported as one
stderr line `internal error: <Type>: <message>`). Output files are
overwritten in place, following symlinks. Witness lines name the input file's
vertex labels.

Each call loads only the modules its route runs. The problem modules
(`capvc`, `convc`, `domset`, `induced_matching`), `oracles`, `verify` and
`generators` are registered lazily (`closurekernels._lazy`) and run their
code on first attribute access. params loads no problem module; kernel and
solve load the one of their problem (and what it imports), solve adds
`oracles`, generate adds `generators` (and with --kind the wrapped
problem's module), and only kernel loads `json`. Only verify loads
`verify`, and `verify --suite X` loads the modules that suite X calls
(`ramsey` for ramsey-guarantee, `subprocess` for determinism).
"""

from __future__ import annotations

import argparse
import os
import random
import stat
import sys
from itertools import combinations

from . import _lazy
from .closure import closure_number, degeneracy, weak_closure_ordering
from .graph import Graph, clique_number
from .instance_io import (
    InstanceFile,
    ParseError,
    from_problem,
    parse_instance,
    to_problem,
    write_instance,
)
from .reduction import Decided

# Never do `from .convc import X` (or any of these) here: it loads the
# module at once.
capvc = _lazy("capvc")
convc = _lazy("convc")
domset = _lazy("domset")
induced_matching = _lazy("induced_matching")
generators = _lazy("generators")
oracles = _lazy("oracles")
verify_mod = _lazy("verify")

TRACE_SCHEMA_VERSION = 1

KERNEL_PROBLEMS = ("capvc", "convc", "coc", "im", "ds")
SOLVE_PROBLEMS = KERNEL_PROBLEMS + ("is",)


class UsageError(Exception):
    pass


def _read_instance(path: str) -> InstanceFile:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from exc
    return parse_instance(text)


def _write_file(path: str, text: str) -> None:
    """Write text over path in place, then trim a regular file to its length.

    A truncating open of a file written moments before can stall for tens of
    milliseconds while the file system flushes the old data."""
    try:
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
            fh.write(text.encode("utf-8"))
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from exc


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        _write_file(out_path, text)


def _load_problem(args, inst: InstanceFile, problem_name: str):
    """The file's typed instance after the kind check and the --k and --ell
    overrides."""
    if inst.kind != problem_name:
        raise UsageError(f"instance kind {inst.kind!r} does not match problem "
                         f"{problem_name!r}")
    problem = to_problem(inst)
    if args.k is not None:
        problem = problem.replace(k=args.k)
    if args.ell is not None:
        if problem_name != "coc":
            raise UsageError("--ell only applies to coc instances")
        problem = problem.replace(ell=args.ell)
    return problem


# ---------------------------------------------------------------------------
# params


def cmd_params(args) -> int:
    inst = _read_instance(args.path)
    g = inst.graph
    ordering = weak_closure_ordering(g)
    wc = ordering.weak_closure
    cl = closure_number(g)
    d = degeneracy(g)[0]
    lines = [
        f"n: {g.n}",
        f"m: {g.m}",
        f"closure: {cl}",
        f"weak-closure: {wc}",
        f"degeneracy: {d}",
    ]
    if g.n <= args.oracle_cap:
        lines.append(f"omega: {clique_number(g)}")
    else:
        lines.append(f"omega: skipped (n above --oracle-cap {args.oracle_cap})")
    lines.append(f"check weak-closure <= closure: {'ok' if wc <= cl else 'VIOLATED'}")
    lines.append(f"check weak-closure <= degeneracy + 1: {'ok' if wc <= d + 1 else 'VIOLATED'}")
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# kernel


def _instance_facts(problem) -> dict:
    return {"n": problem.graph.n, "m": problem.graph.m, "k": problem.k, **problem.fields()}


def cmd_kernel(args) -> int:
    import json  # here, not at the top: no other command writes JSON

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
    # module is loaded, and they are looked up per call, so a wrapper
    # rebound over one (as perfbench/tracing.py does) sees the call.
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
        "closure": closure_number(g),
        "weak_closure": weak_closure_ordering(g).weak_closure,
        "degeneracy": degeneracy(g)[0],
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
    _emit(write_instance(from_problem(reduced_problem)), args.out)
    trace_text = json.dumps(trace, sort_keys=True, indent=2) + "\n"
    if args.trace is not None:
        _write_file(args.trace, trace_text)
    if args.out is not None:
        applied = len(trace["rules"])
        tail = f", decided {'yes' if decided['answer'] else 'no'}" if decided else ""
        print(f"kernel: {applied} rule applications, "
              f"{g.n} -> {reduced_problem.graph.n} vertices{tail}")
    return 0


# ---------------------------------------------------------------------------
# solve


def _validated_witness(problem, witness, labels) -> list[str]:
    """Re-check the oracle's witness with `oracles.is_solution`.

    Returns the witness file lines, naming vertices by their input labels.
    Raises RuntimeError when validation fails, which would mean an oracle bug
    rather than bad input.
    """
    if not oracles.is_solution(problem, witness):
        raise RuntimeError("witness failed validation")
    if problem.file_kind == "im":
        return [f"e {labels[u]} {labels[v]}" for u, v in sorted(witness)]
    return [f"v {labels[v]}" for v in sorted(witness)]


def cmd_solve(args) -> int:
    inst = _read_instance(args.path)
    problem = _load_problem(args, inst, args.problem)
    try:
        res = oracles.solve_exact(problem, max_n=args.oracle_cap)
    except oracles.OracleCapExceeded as exc:
        raise UsageError(f"instance above the oracle size cap ({exc}); "
                         f"raise --oracle-cap to force the run") from exc

    # the witness file is written before anything is printed, so a failed
    # write leaves stdout empty
    lines = None
    if res.answer and res.witness is not None:
        lines = _validated_witness(problem, res.witness, inst.labels)
        if args.witness is not None:
            _write_file(args.witness, "c validated witness\n" + "\n".join(lines) + "\n")
    print(f"answer: {'yes' if res.answer else 'no'}")
    if lines is not None:
        print(f"witness: {len(lines)} lines (validated)")
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    if args.trials is not None and args.trials < 1:
        raise UsageError(f"--trials must be positive, got {args.trials}")
    names = args.suite or list(verify_mod.SUITES)
    for name in names:
        if name not in verify_mod.SUITES:
            raise UsageError(f"unknown suite {name!r}; known: "
                             + ", ".join(verify_mod.SUITES))
    failed = False
    dumped = 0
    for name in names:
        result = verify_mod.run_suite(name, trials=args.trials, seed=args.seed)
        print(result.summary())
        for message in result.failures:
            print(f"  {message}")
        if not result.passed:
            failed = True
        if result.artifacts:
            try:
                os.makedirs(args.dump_dir, exist_ok=True)
            except OSError as exc:
                raise UsageError(f"cannot write {args.dump_dir}: {exc.strerror}") from exc
        for artifact in result.artifacts:
            path = os.path.join(args.dump_dir, f"{result.name}-{dumped}.ck")
            _write_file(path, write_instance(artifact))
            print(f"  counterexample written to {path}")
            dumped += 1
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# generate


def _random_triples(universe: int, count: int | None, seed: int) -> list[frozenset[int]]:
    """`count` shuffled 3-sets of range(universe). None means 2k + 1 for
    k = universe / 3, or every 3-set when there are fewer (one at k = 1)."""
    pool = [frozenset(s) for s in combinations(range(universe), 3)]
    if count is None:
        count = min(2 * universe // 3 + 1, len(pool))
    elif not 0 <= count <= len(pool):
        raise UsageError(f"--sets must be between 0 and {len(pool)}, the number of "
                         f"3-sets of a {universe}-element universe, got {count}")
    rng = random.Random(f"generate:capvc-hard:{universe}:{count}:{seed}")
    rng.shuffle(pool)
    return pool[:count]


def cmd_generate(args) -> int:
    if args.ell is not None and args.kind != "coc":
        raise UsageError("--ell only applies to --kind coc")
    family = args.family
    if family == "split":
        out = from_problem(generators.gen_random_split(args.n, args.seed))
    elif family == "bipartite":
        out = from_problem(generators.gen_random_bipartite(args.n, args.seed))
    elif family == "weakly-closed":
        out = from_problem(generators.gen_random_weakly_closed(args.n, args.gamma, args.seed))
    elif family == "k-ab":
        out = from_problem(generators.gen_k_ab(args.a, args.b))
    elif family == "capvc-hard":
        fam = _random_triples(3 * args.k, args.sets, args.seed)
        out = from_problem(generators.gen_capvc_lowerbound(3 * args.k, fam, 3, args.k))
    elif family == "is-grid":
        size = args.t ** args.q
        pattern = args.pattern if args.pattern is not None else "0" * size
        if len(pattern) != size or set(pattern) - {"0", "1"}:
            raise UsageError(f"--pattern must be {size} characters of 0/1")
        yes = (Graph(1), [(0,)])
        no = (Graph(0), [()])
        instances = [yes if ch == "1" else no for ch in pattern]
        host, budget = generators.gen_is_composition(instances, args.t, args.q, 1)
        out = InstanceFile(kind="is", graph=host, k=budget)
    else:
        raise UsageError(f"unknown family {family!r}")
    if args.kind is not None:
        if out.kind != "graph":
            raise UsageError("--kind only applies to plain graph families")
        ell = None
        if args.kind == "coc":
            ell = 2 if args.ell is None else args.ell
        out = InstanceFile(kind=args.kind, graph=out.graph, k=args.k, ell=ell)
        try:
            to_problem(out)
        except ValueError as exc:
            flags = f"--k {args.k}" + (f" --ell {ell}" if ell is not None else "")
            raise UsageError(f"--kind {args.kind} with {flags}: {exc}") from exc
    _emit(write_instance(out), args.out)
    return 0


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="closurekernels",
        description="Kernelization toolkit for weakly closed graphs.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="parameter report for an instance file")
    p.add_argument("path")
    p.add_argument("--oracle-cap", type=int, default=26,
                   help="largest n for brute-force clique number (default 26)")
    p.set_defaults(fn=cmd_params)

    p = sub.add_parser("kernel", help="run a reduction pipeline",
                       usage="%(prog)s [problem] path [options]")
    # one list, not an optional `problem` before `path`: argparse fills
    # positionals only up to the first option (see main)
    p.add_argument("operands", nargs="+", metavar="[problem] path",
                   help=f"problem to kernelize, one of {', '.join(KERNEL_PROBLEMS)} "
                        "(default: the file's kind), then the instance file")
    p.add_argument("--mode", choices=("gamma", "c"), default="gamma",
                   help="convc route: weak-closure twin rule or closure-number "
                        "annotated pipeline (default gamma)")
    p.add_argument("--k", type=int, default=None, help="override the budget")
    p.add_argument("--ell", type=int, default=None,
                   help="override the component bound (coc only)")
    p.add_argument("--out", default=None,
                   help="write the reduced instance here instead of stdout")
    p.add_argument("--trace", default=None, help="write the JSON trace here")
    p.set_defaults(fn=cmd_kernel, operand_error=p.error)

    p = sub.add_parser("solve", help="exact oracle answer with witness")
    p.add_argument("problem", choices=SOLVE_PROBLEMS)
    p.add_argument("path")
    p.add_argument("--k", type=int, default=None, help="override the budget")
    p.add_argument("--ell", type=int, default=None,
                   help="override the component bound (coc only)")
    p.add_argument("--oracle-cap", type=int, default=26,
                   help="refuse instances with more vertices than this (default 26)")
    p.add_argument("--witness", default=None, help="write the witness here")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("verify", help="run the cross-checking suites")
    p.add_argument("--trials", type=int, default=None,
                   help="per-suite trial count (default: each suite's own)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--suite", action="append", default=None,
                   help="run only this suite (repeatable)")
    p.add_argument("--dump-dir", default="counterexamples",
                   help="directory for counterexample instance files")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("generate", help="write an instance from a family")
    p.add_argument("family", choices=("split", "bipartite", "weakly-closed",
                                      "k-ab", "capvc-hard", "is-grid"))
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--gamma", type=int, default=2,
                   help="weak-closure target for weakly-closed")
    p.add_argument("--a", type=int, default=2)
    p.add_argument("--b", type=int, default=5)
    p.add_argument("--t", type=int, default=2, help="is-grid values per digit")
    p.add_argument("--q", type=int, default=2, help="is-grid arity")
    p.add_argument("--k", type=int, default=1,
                   help="capvc-hard cover count, or the wrapped budget")
    p.add_argument("--sets", type=int, default=None,
                   help="capvc-hard family size, 0 to C(3k, 3) "
                        "(default min(2k+1, C(3k, 3)))")
    p.add_argument("--pattern", default=None,
                   help="is-grid yes/no bits, one per micro instance")
    p.add_argument("--ell", type=int, default=None, help="component bound for --kind coc")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kind", default=None,
                   choices=("convc", "im", "ds", "coc", "is"),
                   help="wrap a plain graph family as a problem instance")
    p.add_argument("--out", default=None, help="write here instead of stdout")
    p.set_defaults(fn=cmd_generate)

    return top


def _kernel_operands(error, operands: list[str], extra: list[str]) -> tuple[str | None, str]:
    """kernel's (problem, path) from the operands argparse took and the
    arguments it left over, in command-line order; `error` is the kernel
    parser's, which prints its usage and exits 2."""
    options = [a for a in extra if a.startswith("-")]
    operands = operands + extra
    if options or len(operands) > 2:
        error(f"unrecognized arguments: {' '.join(options or operands[2:])}")
    if len(operands) == 1:
        return None, operands[0]
    if operands[0] not in KERNEL_PROBLEMS:
        error(f"argument problem: invalid choice: {operands[0]!r} "
              f"(choose from {', '.join(KERNEL_PROBLEMS)})")
    return operands[0], operands[1]


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if args.command == "kernel":
            # argparse leaves the operands after an option unparsed, as in
            # `kernel convc --mode c in.ck`: they arrive here in order
            args.problem, args.path = _kernel_operands(args.operand_error, args.operands, extra)
        elif extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"{args.path}:{exc.line}:{exc.col}: {exc.message}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        message = " ".join(str(exc).splitlines())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 4
