"""The verify subcommand: run the cross-checking suites and dump their
counterexamples. `instance_io` loads only to write a counterexample."""

from __future__ import annotations

import os

from .. import _lazy
from ..cli import UsageError, _say, _write_file

instance_io = _lazy("instance_io")
verify_mod = _lazy("verify")


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
            _write_file(path, instance_io.write_instance(artifact))
            _say(f"  counterexample written to {path}")
            dumped += 1
    return 1 if failed else 0


def arguments(p) -> None:
    p.add_argument("--trials", type=int, default=None,
                   help="per-suite trial count (default: each suite's own)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--suite", action="append", default=None,
                   help="run only this suite (repeatable)")
    p.add_argument("--dump-dir", default="counterexamples",
                   help="directory for counterexample instance files")
    p.set_defaults(fn=cmd_verify)
