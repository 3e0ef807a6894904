"""Command-line front end.

Subcommands: params (parameter report), kernel (run a reduction pipeline and
emit the reduced instance plus a JSON trace), solve (exact oracle answer with
a validated witness), verify (randomized cross-checking suites), generate
(instance families, including the hard-instance constructions).

Exit codes are a stable contract: 0 success or decided, 1 verification suite
failure, 2 usage error (kind mismatches, oracle cap overruns, unwritable
output paths, any failed write to stdout), 3 instance parse error, 4
internal error (an exception no other code covers, such as a witness that
fails its re-check; reported as one stderr line `internal error: <Type>:
<message>`). Output files are overwritten in place, following symlinks.
Witness lines name the input file's vertex labels.

Each call loads only the modules its route runs. This module holds params
and kernel; solve, verify and generate are in `commands`, and the parser
gets only the named command's arguments. `commands`, the problem modules
(`capvc`, `convc`, `domset`, `induced_matching`), `oracles`, `verify` and
`generators` are registered lazily (`closurekernels._lazy`) and run their
code on first attribute access. params loads no problem module; kernel and
solve load the one of their problem (and what it imports), solve adds
`oracles`, generate adds `generators` (and with --kind the wrapped
problem's module), and only kernel loads `json`. Only verify loads
`verify`, and `verify --suite X` loads the modules that suite X calls
(`ramsey` for ramsey-guarantee, `subprocess` for determinism).

`run` is the process entry point (`python -m closurekernels` and the
`closurekernels` script). It calls `main`, flushes stdout and stderr, and
ends the process with `os._exit`: a one-shot command has no interpreter
teardown worth paying for. Under `python -X dev` (`sys.flags.dev_mode`) it
exits through `sys.exit` instead, so that teardown still reports unclosed
resources, and so it does when a flush fails. `main` returns the exit code
and is what in-process callers use.
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
from .graph import clique_number
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
commands = _lazy("commands")
# only `commands` reads these three; registering them here gives every
# module of the package an entry in sys.modules once cli is imported
generators = _lazy("generators")
oracles = _lazy("oracles")
verify_mod = _lazy("verify")

TRACE_SCHEMA_VERSION = 1

KERNEL_PROBLEMS = ("capvc", "convc", "coc", "im", "ds")


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


class _StdoutLost(Exception):
    """A write to stdout failed; the OSError is the cause."""


def _say(text: str, end: str = "\n") -> None:
    """Write to stdout. Every command writes there through this, so that
    `main` tells a failed stdout write from any other OSError."""
    try:
        sys.stdout.write(text + end)
    except OSError as exc:
        raise _StdoutLost from exc


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        _say(text, end="")
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
    _say("\n".join(lines))
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
        _say(f"kernel: {applied} rule applications, "
             f"{g.n} -> {reduced_problem.graph.n} vertices{tail}")
    return 0


# ---------------------------------------------------------------------------
# generate: the command is in `commands`; this helper stays here because
# perfbench/corpus.py builds its capvc gadget with it


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


# ---------------------------------------------------------------------------
# entry point


def _params_arguments(p) -> None:
    p.add_argument("path")
    p.add_argument("--oracle-cap", type=int, default=26,
                   help="largest n for brute-force clique number (default 26)")
    p.set_defaults(fn=cmd_params)


def _kernel_arguments(p) -> None:
    p.usage = "%(prog)s [problem] path [options]"
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


# subcommand -> its help line; the top-level --help lists them all
COMMANDS = {
    "params": "parameter report for an instance file",
    "kernel": "run a reduction pipeline",
    "solve": "exact oracle answer with witness",
    "verify": "run the cross-checking suites",
    "generate": "write an instance from a family",
}


def _build_parser(command: str | None) -> argparse.ArgumentParser:
    """The parser with every subcommand, but only `command`'s arguments:
    the others are never parsed, and solve's, verify's and generate's live
    in `commands`, which is loaded only for them."""
    top = argparse.ArgumentParser(
        prog="closurekernels",
        description="Kernelization toolkit for weakly closed graphs.")
    sub = top.add_subparsers(dest="command", required=True)
    for name, help_text in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == command:
            if name == "params":
                _params_arguments(p)
            elif name == "kernel":
                _kernel_arguments(p)
            else:
                commands.ARGUMENTS[name](p)
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


def _stdout_lost(exc: OSError) -> int:
    """Report a failed write to stdout, such as a closed pipe or a full
    device, as a usage error, and point fd 1 at os.devnull so that the
    output still buffered cannot fail again at exit."""
    print(f"error: cannot write stdout: {exc.strerror}", file=sys.stderr)
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)
    return 2


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # the command is the first operand: the top level has no option but -h
    parser = _build_parser(next((a for a in argv if not a.startswith("-")), None))
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
    except _StdoutLost as exc:  # output files map their errors to UsageError
        return _stdout_lost(exc.__cause__)
    except Exception as exc:
        message = " ".join(str(exc).splitlines())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 4


def run() -> None:
    """The process entry point: `main`, then an exit that skips interpreter
    teardown once stdout and stderr are flushed. Under `python -X dev` it
    exits through `sys.exit`, so teardown's ResourceWarnings still show, and
    so it does when a flush fails."""
    code = main()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        sys.exit(_stdout_lost(exc))
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        sys.exit(code)
    if sys.flags.dev_mode:
        sys.exit(code)
    os._exit(code)
