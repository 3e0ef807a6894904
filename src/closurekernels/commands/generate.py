"""The generate subcommand: write an instance from a family."""

from __future__ import annotations

from .. import _lazy, instance_io
from ..cli import UsageError, _emit, _random_triples
from ..graph import Graph
from ..instance_io import InstanceFile, from_problem, to_problem

generators = _lazy("generators")


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
        out = from_problem(generators.complete_bipartite(args.a, args.b))
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
    _emit(instance_io.write_instance(out), args.out)
    return 0


def arguments(p) -> None:
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
