"""Suite 9: determinism. Generators and the kernel command write the same
bytes on every run, the command across interpreters with different hash
seeds."""

from __future__ import annotations

import os
import random
import subprocess
import sys
import tempfile

from .. import generators, instance_io
from ..graph import Graph
from ..instance_io import InstanceFile
from ..verify import SuiteResult, _random_graph

HASH_SEEDS = ("1", "2")


def _generator_checks(rec: SuiteResult, seed: int) -> None:
    """Six generator outputs, each built twice, must write the same bytes."""
    gen = generators
    pairs = [
        (gen.gen_random_split(9, seed), gen.gen_random_split(9, seed)),
        (gen.gen_random_bipartite(10, seed + 1), gen.gen_random_bipartite(10, seed + 1)),
        (gen.gen_random_weakly_closed(8, 2, seed), gen.gen_random_weakly_closed(8, 2, seed)),
        (gen.complete_bipartite(2, 5), gen.complete_bipartite(2, 5)),
    ]
    family = [frozenset({0, 1, 2}), frozenset({2, 3, 4}), frozenset({3, 4, 5})]
    a1 = gen.gen_capvc_lowerbound(6, family, 3, 2)
    a2 = gen.gen_capvc_lowerbound(6, family, 3, 2)
    pairs.append((a1.graph, a2.graph))
    micro = [(Graph(1), [(0,)]), (Graph(0), [()])] * 2
    h1, _ = gen.gen_is_composition(micro, 2, 2, 1)
    h2, _ = gen.gen_is_composition(micro, 2, 2, 1)
    pairs.append((h1, h2))
    for first, second in pairs:
        one = instance_io.write_instance(instance_io.from_problem(first))
        two = instance_io.write_instance(instance_io.from_problem(second))
        if one != two:
            rec.fail("generator output differs between repeat builds")
        else:
            rec.ok()


def _first_failure(procs: list[subprocess.Popen]) -> str | None:
    """Wait for the children in order; the message of the first that exits
    with a nonzero code, or None when all succeed."""
    for proc in procs:
        _, err = proc.communicate()
        if proc.returncode != 0:
            lines = err.decode(errors="replace").strip().splitlines()
            return (f"kernel command exited with code {proc.returncode}: "
                    + (lines[-1] if lines else "no error output"))
    return None


def suite_determinism(trials: int = 7, seed: int = 0) -> SuiteResult:
    """Byte-identical generator output and kernel command output across
    repeat runs (the command twice, side by side, in fresh interpreters
    with different hash seeds). The children start first, so the generator
    checks run while they start up; when one child fails, the others are
    killed and reaped. trials is ignored."""
    rec = SuiteResult("determinism")
    rng = random.Random(f"verify:determinism:{seed}")
    g = _random_graph(rng, 9, 0.4)
    text = instance_io.write_instance(InstanceFile(kind="convc", graph=g, k=3))
    with tempfile.TemporaryDirectory() as workdir:
        src = os.path.join(workdir, "in.ck")
        with open(src, "w") as fh:
            fh.write(text)
        paths = [(os.path.join(workdir, f"out-{s}.ck"), os.path.join(workdir, f"trace-{s}.json"))
                 for s in HASH_SEEDS]
        procs: list[subprocess.Popen] = []
        try:
            for s, (out, trace) in zip(HASH_SEEDS, paths):
                procs.append(subprocess.Popen(
                    [sys.executable, "-m", "closurekernels", "kernel", src,
                     "--out", out, "--trace", trace],
                    stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                    env=dict(os.environ, PYTHONHASHSEED=s)))
            _generator_checks(rec, seed)
            failure = _first_failure(procs)
        finally:
            for proc in procs:
                if proc.returncode is None:
                    proc.kill()
                    proc.communicate()
        if failure is not None:
            rec.fail(failure)
            return rec
        outputs = []
        for pair in paths:
            files = []
            for path in pair:
                with open(path, "rb") as fh:
                    files.append(fh.read())
            outputs.append(files)
    if outputs[0] != outputs[1]:
        rec.fail("kernel command output differs between runs")
    else:
        rec.ok()
    return rec
