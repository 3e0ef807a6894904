"""The solve, verify and generate subcommands, with their arguments.

`cli` registers this module lazily and reads it only when the command line
names one of these three commands, so a `params` or `kernel` call never
compiles or runs this code. The shared helpers (instance reading, output
writing, the kind check) stay in `cli`.
"""

from __future__ import annotations

import os

from .cli import (
    KERNEL_PROBLEMS,
    UsageError,
    _emit,
    _load_problem,
    _random_triples,
    _read_instance,
    _say,
    _write_file,
    generators,
    oracles,
    verify_mod,
)
from .graph import Graph
from .instance_io import InstanceFile, from_problem, to_problem, write_instance

SOLVE_PROBLEMS = KERNEL_PROBLEMS + ("is",)


# ---------------------------------------------------------------------------
# solve


def _witness_lines(problem, witness, labels) -> list[str]:
    """The witness file lines, naming vertices by their input labels.
    `oracles.solve_exact` has already validated the witness."""
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
                         "raise --oracle-cap to force the run") from exc

    # the witness file is written before anything is printed, so a failed
    # write leaves stdout empty
    lines = None
    if res.answer and res.witness is not None:
        lines = _witness_lines(problem, res.witness, inst.labels)
        if args.witness is not None:
            _write_file(args.witness, "c validated witness\n" + "\n".join(lines) + "\n")
    _say(f"answer: {'yes' if res.answer else 'no'}")
    if lines is not None:
        _say(f"witness: {len(lines)} lines (validated)")
    return 0


def _solve_arguments(p) -> None:
    p.add_argument("problem", choices=SOLVE_PROBLEMS)
    p.add_argument("path")
    p.add_argument("--k", type=int, default=None, help="override the budget")
    p.add_argument("--ell", type=int, default=None,
                   help="override the component bound (coc only)")
    p.add_argument("--oracle-cap", type=int, default=26,
                   help="refuse instances with more vertices than this (default 26)")
    p.add_argument("--witness", default=None, help="write the witness here")
    p.set_defaults(fn=cmd_solve)


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
        _say(result.summary())
        for message in result.failures:
            _say(f"  {message}")
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
            _say(f"  counterexample written to {path}")
            dumped += 1
    return 1 if failed else 0


def _verify_arguments(p) -> None:
    p.add_argument("--trials", type=int, default=None,
                   help="per-suite trial count (default: each suite's own)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--suite", action="append", default=None,
                   help="run only this suite (repeatable)")
    p.add_argument("--dump-dir", default="counterexamples",
                   help="directory for counterexample instance files")
    p.set_defaults(fn=cmd_verify)


# ---------------------------------------------------------------------------
# generate


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
        if args.t < 2 or args.q < 2:  # before t ** q, which fails or is a float at q < 0
            raise UsageError("need q >= 2, t >= 2, k >= 1")
        if args.q > 16 or args.t ** args.q > 2 ** 16:  # t >= 2, so q > 16 is over too
            raise UsageError(f"--t {args.t} --q {args.q} makes more than 2^16 grid points")
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


def _generate_arguments(p) -> None:
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


# command name -> the function that adds its arguments to its subparser
ARGUMENTS = {
    "solve": _solve_arguments,
    "verify": _verify_arguments,
    "generate": _generate_arguments,
}
