"""The params subcommand: the parameter report of an instance file."""

from __future__ import annotations

from .. import _lazy
from ..cli import _read_instance, _say

closure = _lazy("closure")
graph = _lazy("graph")


def cmd_params(args) -> int:
    g = _read_instance(args.path).graph
    # through the module, so that a wrapper rebound over one of these
    # functions (as perfbench/tracing.py does) sees the call
    wc = closure.weak_closure_ordering(g).weak_closure
    cl = closure.closure_number(g)
    d = closure.degeneracy(g)[0]
    lines = [
        f"n: {g.n}",
        f"m: {g.m}",
        f"closure: {cl}",
        f"weak-closure: {wc}",
        f"degeneracy: {d}",
    ]
    if g.n <= args.oracle_cap:
        lines.append(f"omega: {graph.clique_number(g)}")
    else:
        lines.append(f"omega: skipped (n above --oracle-cap {args.oracle_cap})")
    lines.append(f"check weak-closure <= closure: {'ok' if wc <= cl else 'VIOLATED'}")
    lines.append(f"check weak-closure <= degeneracy + 1: {'ok' if wc <= d + 1 else 'VIOLATED'}")
    _say("\n".join(lines))
    return 0


def arguments(p) -> None:
    p.add_argument("path")
    p.add_argument("--oracle-cap", type=int, default=26,
                   help="largest n for brute-force clique number (default 26)")
    p.set_defaults(fn=cmd_params)
