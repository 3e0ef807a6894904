"""Write the golden CLI corpus: small inputs and the exact bytes the CLI
produces for them.

Run from the repository root:

    PYTHONPATH=src python tests/golden/make_corpus.py

Each case gets a directory under tests/golden/cases/ holding `in.ck`, the
expected `stdout`, and `out.ck` / `trace.json` / `witness.txt` when the case
writes them. `cases.json` lists every case's argument vector, with IN, OUT,
TRACE and WITNESS standing for the four paths. tests/test_golden.py reruns
every case and compares bytes, so regenerate only when an output change is
intended.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import sys
import tempfile
from itertools import combinations

from closurekernels.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
CASES_DIR = os.path.join(HERE, "cases")


def instance(kind: str, n: int, edges, k: int = 0, ell: int | None = None,
             cap=None, red=(), parts=None, labels=None) -> str:
    """Instance file text; `labels` renames the dense ids 0..n-1 and
    `parts` gives each vertex's part index."""
    lab = labels or list(range(n))
    edges = sorted({(min(u, v), max(u, v)) for u, v in edges})
    head = f"p {kind} {n} {len(edges)} {k}" + (f" {ell}" if ell is not None else "")
    lines = [head]
    if cap is not None:
        lines += [f"cap {lab[v]} {c}" for v, c in enumerate(cap)]
    lines += [f"red {lab[v]}" for v in red]
    if parts is not None:
        lines += [f"part {lab[v]} {i}" for v, i in enumerate(parts)]
    lines += [f"e {lab[u]} {lab[v]}" for u, v in edges]
    return "\n".join(lines) + "\n"


def star(leaves: int):
    return [(0, i) for i in range(1, leaves + 1)]


def path(n: int):
    return [(i, i + 1) for i in range(n - 1)]


def complete(n: int):
    return list(combinations(range(n), 2))


def k_ab(a: int, b: int):
    return [(u, a + v) for u in range(a) for v in range(b)]


def gnp(n: int, p: float, seed: int, connected: bool = False):
    rng = random.Random(f"golden:gnp:{n}:{p}:{seed}")
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    if connected:
        edges += [(rng.randrange(v), v) for v in range(1, n)]
    return edges


def split(seed: int):
    """Random split graph: a clique on the first a vertices, each
    clique/independent pair joined with one shared probability."""
    rng = random.Random(seed)
    n = rng.randint(6, 16)
    a = rng.randint(2, n - 2)
    p = rng.choice((0.2, 0.4, 0.6))
    edges = list(combinations(range(a), 2))
    edges += [(u, v) for u in range(a) for v in range(a, n) if rng.random() < p]
    return n, edges


def hub_with_p2s(count: int):
    edges = []
    for i in range(count):
        a, b = 1 + 2 * i, 2 + 2 * i
        edges += [(0, a), (a, b)]
    return 1 + 2 * count, edges


def generated(*argv: str) -> str:
    """Input text from the CLI's own `generate` command."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "g.ck")
        if main(["generate", *argv, "--out", out]) != 0:
            raise RuntimeError(f"generate {argv} failed")
        with open(out, encoding="utf-8") as fh:
            return fh.read()


KERNEL = ("--out", "OUT", "--trace", "TRACE")
WITNESS = ("--witness", "WITNESS")


def cases() -> list[tuple[str, str, list[str]]]:
    """(name, input text, argv) for every case."""
    n_hub, hub = hub_with_p2s(9)
    ds = {seed: split(seed) for seed in (2, 31, 43, 174, 303)}
    out = [
        # capvc: the twin-class rule
        ("capvc-star", instance("capvc", 5, star(4), k=1, cap=[4, 0, 0, 0, 0]),
         ["kernel", "capvc", "IN", *KERNEL]),
        ("capvc-kab", instance("capvc", 8, k_ab(2, 6), k=2, cap=[3, 1, 0, 2, 0, 1, 0, 2]),
         ["kernel", "capvc", "IN", *KERNEL]),
        ("capvc-hard", generated("capvc-hard", "--k", "2", "--seed", "1"),
         ["kernel", "capvc", "IN", *KERNEL]),
        ("capvc-random", instance("capvc", 12, gnp(12, 0.3, 1), k=2,
                                  cap=[(3 * v) % 4 for v in range(12)]),
         ["kernel", "IN", *KERNEL]),
        ("capvc-labels", instance("capvc", 6, star(5), k=1, cap=[5, 1, 1, 0, 0, 1],
                                  labels=[40, 3, 17, 8, 25, 11]),
         ["kernel", "capvc", "IN", *KERNEL]),
        ("capvc-stdout", instance("capvc", 7, star(6), k=2, cap=[6, 0, 0, 0, 0, 0, 0]),
         ["kernel", "capvc", "IN", "--trace", "TRACE"]),
        # convc, weak-closure route: the twinset rule
        ("convc-kab", instance("convc", 7, k_ab(2, 5), k=3),
         ["kernel", "convc", "IN", *KERNEL]),
        ("convc-weakly-closed", generated("weakly-closed", "--n", "30", "--gamma", "2",
                                          "--seed", "5", "--kind", "convc", "--k", "3"),
         ["kernel", "convc", "IN", *KERNEL]),
        ("convc-random", instance("convc", 15, gnp(15, 0.25, 2), k=4),
         ["kernel", "convc", "IN", "--mode", "gamma", *KERNEL]),
        ("convc-k-override", instance("convc", 9, k_ab(3, 6), k=5),
         ["kernel", "convc", "IN", "--k", "2", *KERNEL]),
        # convc, closure-number route on plain input
        ("convc-c-p5", instance("convc", 5, path(5), k=3),
         ["kernel", "convc", "IN", "--mode", "c", *KERNEL]),
        ("convc-c-yes", instance("convc", 6, star(5), k=1),
         ["kernel", "convc", "IN", "--mode", "c", *KERNEL]),
        ("convc-c-no-split", instance("convc", 4, [(0, 1), (2, 3)], k=3),
         ["kernel", "convc", "IN", "--mode", "c", *KERNEL]),
        ("convc-c-no-budget", instance("convc", 9, path(9), k=2),
         ["kernel", "convc", "IN", "--mode", "c", *KERNEL]),
        ("convc-c-isolated", instance("convc", 8, path(5), k=3),
         ["kernel", "convc", "IN", "--mode", "c", *KERNEL]),
        ("convc-c-random", instance("convc", 12, gnp(12, 0.2, 3, connected=True), k=6),
         ["kernel", "convc", "IN", "--mode", "c", *KERNEL]),
        ("convc-c-labels", instance("convc", 6, path(6), k=4,
                                    labels=[9, 2, 30, 14, 5, 21]),
         ["kernel", "convc", "IN", "--mode", "c", *KERNEL]),
        ("convc-c-stdout", instance("convc", 7, path(7), k=5),
         ["kernel", "convc", "IN", "--mode", "c", "--trace", "TRACE"]),
        # convc with red marks: the annotated route, in either mode
        ("convc-red", instance("convc", 6, path(6), k=4, red=[2]),
         ["kernel", "convc", "IN", *KERNEL]),
        ("convc-red-mode-c", instance("convc", 6, path(6), k=4, red=[2]),
         ["kernel", "convc", "IN", "--mode", "c", *KERNEL]),
        ("convc-red-yes", instance("convc", 5, star(4), k=1, red=[0]),
         ["kernel", "convc", "IN", *KERNEL]),
        ("convc-red-no-split", instance("convc", 3, [(0, 1)], k=2, red=[0, 2]),
         ["kernel", "convc", "IN", *KERNEL]),
        ("convc-red-no-budget", instance("convc", 8, path(8), k=1, red=[0, 7]),
         ["kernel", "convc", "IN", "--mode", "c", *KERNEL]),
        ("convc-red-isolated", instance("convc", 9, gnp(7, 0.4, 4, connected=True),
                                        k=5, red=[1, 8]),
         ["kernel", "convc", "IN", *KERNEL]),
        # coc: small components and component twins
        ("coc-hub", instance("coc", n_hub, hub, k=1, ell=2),
         ["kernel", "coc", "IN", *KERNEL]),
        ("coc-small", instance("coc", 11, [(0, 1), (2, 3), (3, 4)] + [(5 + i, 5 + j) for i, j in
                                                                     complete(4)] + [(8, 9), (9, 10)],
                               k=2, ell=2),
         ["kernel", "coc", "IN", *KERNEL]),
        ("coc-small-ell-override", instance("coc", 9, [(0, 1), (2, 3), (3, 4), (4, 5), (5, 6)],
                                            k=1, ell=2),
         ["kernel", "coc", "IN", "--ell", "1", *KERNEL]),
        ("coc-random", instance("coc", 12, gnp(12, 0.25, 5), k=2, ell=2),
         ["kernel", "coc", "IN", *KERNEL]),
        # im: dense posterior, the LP decision, twins
        ("im-k8", instance("im", 8, complete(8), k=1),
         ["kernel", "im", "IN", *KERNEL]),
        ("im-k0", instance("im", 6, path(6), k=0),
         ["kernel", "im", "IN", *KERNEL]),
        ("im-k-override-yes", instance("im", 7, k_ab(2, 5), k=2),
         ["kernel", "im", "IN", "--k", "0", *KERNEL]),
        ("im-twins", instance("im", 7, k_ab(2, 5), k=2),
         ["kernel", "im", "IN", *KERNEL]),
        ("im-edgeless", instance("im", 5, [], k=1),
         ["kernel", "im", "IN", *KERNEL]),
        ("im-random", instance("im", 14, gnp(14, 0.3, 6), k=2),
         ["kernel", "im", "IN", *KERNEL]),
        ("im-stdout", instance("im", 8, gnp(8, 0.4, 7), k=1),
         ["kernel", "im", "IN", "--trace", "TRACE"]),
        # ds on split graphs
        ("ds-isolated-no", instance("ds", *ds[2], k=0),
         ["kernel", "ds", "IN", *KERNEL]),
        ("ds-isolated-charge", instance("ds", *ds[43], k=2),
         ["kernel", "ds", "IN", *KERNEL]),
        ("ds-dominated-clique", instance("ds", *ds[31], k=1),
         ["kernel", "ds", "IN", *KERNEL]),
        ("ds-dominated-independent", instance("ds", *ds[303], k=1),
         ["kernel", "ds", "IN", *KERNEL]),
        ("ds-sunflower", instance("ds", *ds[174], k=1),
         ["kernel", "ds", "IN", *KERNEL]),
        ("ds-rules-then-no", instance("ds", *ds[2], k=2),
         ["kernel", "ds", "IN", *KERNEL]),
        ("ds-generated", generated("split", "--n", "14", "--seed", "3", "--kind", "ds",
                                   "--k", "3"),
         ["kernel", "IN", *KERNEL]),
        # parameter reports
        ("params-kab", instance("graph", 7, k_ab(2, 5)), ["params", "IN"]),
        ("params-random", instance("graph", 15, gnp(15, 0.25, 2)), ["params", "IN"]),
        ("params-split", instance("ds", *ds[174], k=1), ["params", "IN"]),
        ("params-capped", generated("capvc-hard", "--k", "2", "--seed", "1"),
         ["params", "IN", "--oracle-cap", "10"]),
        # solve: one oracle per kind, witnesses re-checked and written
        ("solve-capvc", instance("capvc", 8, k_ab(2, 6), k=3, cap=[6, 5, 1, 1, 1, 1, 1, 1]),
         ["solve", "capvc", "IN", *WITNESS]),
        ("solve-capvc-hard", generated("capvc-hard", "--k", "1", "--seed", "2"),
         ["solve", "capvc", "IN", *WITNESS]),
        ("solve-convc", instance("convc", 12, gnp(12, 0.2, 3, connected=True), k=8),
         ["solve", "convc", "IN", *WITNESS]),
        ("solve-convc-red", instance("convc", 6, path(6), k=6, red=[0, 5]),
         ["solve", "convc", "IN", *WITNESS]),
        ("solve-coc", instance("coc", n_hub, hub, k=1, ell=2,
                               labels=[3 * v + 1 for v in range(n_hub)]),
         ["solve", "coc", "IN", *WITNESS]),
        ("solve-im", instance("im", 10, gnp(10, 0.3, 8), k=2),
         ["solve", "im", "IN", *WITNESS]),
        ("solve-ds", instance("ds", *ds[174], k=3),
         ["solve", "ds", "IN", *WITNESS]),
        ("solve-is", instance("is", 9, gnp(9, 0.35, 9), k=3),
         ["solve", "is", "IN", *WITNESS]),
        ("solve-is-multicolored",
         instance("is", 6, [(0, 1), (2, 3), (4, 5), (0, 2), (1, 3), (2, 4), (3, 5)],
                  k=3, parts=[0, 0, 1, 1, 2, 2]),
         ["solve", "is", "IN", *WITNESS]),
        ("solve-no", instance("convc", 9, path(9), k=2),
         ["solve", "convc", "IN"]),
        ("solve-k-override", instance("ds", *ds[31], k=0),
         ["solve", "ds", "IN", "--k", "2", *WITNESS]),
    ]
    return out


def run_case(case_dir: str, argv: list[str], workdir: str) -> dict[str, bytes]:
    """Run one case; returns the produced bytes keyed by expected file name."""
    paths = {"IN": os.path.join(case_dir, "in.ck"),
             "OUT": os.path.join(workdir, "out.ck"),
             "TRACE": os.path.join(workdir, "trace.json"),
             "WITNESS": os.path.join(workdir, "witness.txt")}
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([paths.get(a, a) for a in argv])
    if code != 0:
        raise RuntimeError(f"{case_dir}: exit code {code}")
    got = {"stdout": stdout.getvalue().encode("utf-8")}
    for key, name in (("OUT", "out.ck"), ("TRACE", "trace.json"),
                      ("WITNESS", "witness.txt")):
        if key in argv:
            with open(paths[key], "rb") as fh:
                got[name] = fh.read()
    return got


def write_corpus() -> None:
    if os.path.isdir(CASES_DIR):
        shutil.rmtree(CASES_DIR)
    manifest = {}
    for name, text, argv in cases():
        case_dir = os.path.join(CASES_DIR, name)
        os.makedirs(case_dir)
        with open(os.path.join(case_dir, "in.ck"), "w", encoding="utf-8") as fh:
            fh.write(text)
        with tempfile.TemporaryDirectory() as work:
            for fname, data in run_case(case_dir, argv, work).items():
                with open(os.path.join(case_dir, fname), "wb") as fh:
                    fh.write(data)
        manifest[name] = argv
    with open(os.path.join(HERE, "cases.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(manifest)} cases to {CASES_DIR}", file=sys.stderr)


if __name__ == "__main__":
    write_corpus()
