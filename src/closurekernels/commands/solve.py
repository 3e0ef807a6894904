"""The solve subcommand: the exact oracle's answer, with a witness that
`oracles.solve_exact` has validated."""

from __future__ import annotations

from .. import _lazy
from ..cli import KERNEL_PROBLEMS, UsageError, _load_problem, _read_instance, _say, _write_file

oracles = _lazy("oracles")

SOLVE_PROBLEMS = KERNEL_PROBLEMS + ("is",)


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


def arguments(p) -> None:
    p.add_argument("problem", choices=SOLVE_PROBLEMS)
    p.add_argument("path")
    p.add_argument("--k", type=int, default=None, help="override the budget")
    p.add_argument("--ell", type=int, default=None,
                   help="override the component bound (coc only)")
    p.add_argument("--oracle-cap", type=int, default=26,
                   help="refuse instances with more vertices than this (default 26)")
    p.add_argument("--witness", default=None, help="write the witness here")
    p.set_defaults(fn=cmd_solve)
