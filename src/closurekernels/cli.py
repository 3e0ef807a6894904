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

Each call compiles only the code its route runs. This module is the
dispatcher: it parses the command line, maps errors to exit codes and holds
the helpers that several commands share (instance reading, output writing,
the kind check). Each subcommand's body and arguments live in its own
module, `commands.<name>`, which is imported only when the command line
starts with that command and which imports what the command runs. `main`
parses the rest of the command line with that command's own parser in
argparse's intermixed mode, so options may come before, between or after
the operands; the top-level parser, which lists the commands, only handles
`-h` and a missing or unknown command. The package's other modules are
registered lazily (`closurekernels._lazy`) and run their code on first
attribute access, so this module compiles no `closure`, `graph` or
`instance_io` code of its own. README lists the modules each route runs,
and `tests/test_cli.py::TestLazyImports` pins them.

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
import importlib
import os
import stat
import sys

from . import _lazy

# Never do `from .instance_io import X` (or from any of these) here: it
# loads the module at once. Registering every module whose functions
# perfbench/tracing.py wraps gives each an entry in sys.modules once cli is
# imported, without running its code.
for _name in ("capvc", "closure", "combinatorics", "convc", "domset", "generators", "graph",
              "induced_matching", "oracles", "verify"):
    _lazy(_name)
instance_io = _lazy("instance_io")

KERNEL_PROBLEMS = ("capvc", "convc", "coc", "im", "ds")


class UsageError(Exception):
    pass


def _read_instance(path: str) -> instance_io.InstanceFile:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from exc
    return instance_io.parse_instance(text)


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


def _load_problem(args, inst: instance_io.InstanceFile, problem_name: str):
    """The file's typed instance after the kind check and the --k and --ell
    overrides."""
    if inst.kind != problem_name:
        raise UsageError(f"instance kind {inst.kind!r} does not match problem "
                         f"{problem_name!r}")
    problem = instance_io.to_problem(inst)
    if args.k is not None:
        problem = problem.replace(k=args.k)
    if args.ell is not None:
        if problem_name != "coc":
            raise UsageError("--ell only applies to coc instances")
        problem = problem.replace(ell=args.ell)
    return problem


# ---------------------------------------------------------------------------
# generate's family draw: here, not in `commands.generate`, because
# perfbench/corpus.py builds its capvc gadget with it


def _random_triples(universe: int, count: int | None, seed: int) -> list[frozenset[int]]:
    """`count` shuffled 3-sets of range(universe). None means 2k + 1 for
    k = universe / 3, or every 3-set when there are fewer (one at k = 1)."""
    import random
    from itertools import combinations

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


# subcommand -> its help line; the top-level --help lists them all, and
# commands.<subcommand> holds its body and arguments
COMMANDS = {
    "params": "parameter report for an instance file",
    "kernel": "run a reduction pipeline",
    "solve": "exact oracle answer with witness",
    "verify": "run the cross-checking suites",
    "generate": "write an instance from a family",
}


def _build_parser(command: str | None) -> tuple[argparse.ArgumentParser,
                                                argparse.ArgumentParser | None]:
    """The top-level parser, which lists every subcommand, and `command`'s
    own parser (None without a command). Only `command` gets its arguments,
    and only its module is imported."""
    top = argparse.ArgumentParser(
        prog="closurekernels",
        description="Kernelization toolkit for weakly closed graphs.")
    sub = top.add_subparsers(dest="command", required=True)
    own = None
    for name, help_text in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == command:
            importlib.import_module(f"{__package__}.commands.{name}").arguments(p)
            own = p
    return top, own


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
    top, parser = _build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        if parser is None:
            # -h, or a missing or unknown command: the top level prints its
            # help or its error and exits (it returns only where argparse
            # takes a command after `--`)
            top.parse_args(argv)
            top.error("the command must be the first argument")
        # intermixed: operands may sit before, between and after options
        args = parser.parse_intermixed_args(argv[1:])
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        if isinstance(exc, instance_io.ParseError):
            print(f"{args.path}:{exc.line}:{exc.col}: {exc.message}", file=sys.stderr)
            return 3
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
