"""Seeded inputs for the three workloads.

Every instance is built from the run seed alone, written as a `.ck` file, and
described by an `Op`: the CLI arguments to run and what the checker needs to
know about it. The same seed gives byte-identical files.
"""
from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from itertools import combinations

import check
# through the modules, so that the traced pass sees the calls
from closurekernels import cli, generators, instance_io
from closurekernels.graph import Graph

# G(n, 8/n), twin-heavy and weakly closed sizes for sparse-kernel; the
# split sizes for split-ds. They keep one pass of each workload near four
# seconds on a 2-core machine, so a 40 s run times every op six to nine
# times and reports its median (see run.py).
SPARSE_N = 90
TWIN_N = 56
WC_N = 56
# Below the weak closure of every binomial proposal of
# gen_random_weakly_closed at WC_N, so that it peels one and returns its
# clique-union proposal.
WC_GAMMA = 2
SPLIT_N = (80, 90, 100)
SPLIT_DENSITIES = (0.2, 0.4, 0.7)
SPLIT_TWINS = 4
KERNEL_K = 2
COC_ELL = 2
ORACLE_CAP = 60
# capvc-hard gadget: the CLI's default family for --k 2 (universe 3k, 2k + 1
# triples). Every --k 3 family takes 6-11 s, longer than a whole pass.
GADGET_K = 2
# verify runs one call per suite; the three suites that take seconds at
# their default trial counts run at these counts, the others at their
# defaults.
VERIFY_TRIALS = {"parameter-engines": 500, "rule-safety": 50,
                 "setcover-gadget": 20}
# verify runs at its default seed for every run seed: at these trial counts
# a suite's time moves by up to 1.5x with its seed (setcover-gadget 0.36 to
# 0.61 s), which would swamp the run-to-run spread. The run seed draws the
# solve instances.
VERIFY_SEED = 0


@dataclass
class Op:
    """One CLI call of a pass, plus what its output must satisfy."""

    name: str
    kind: str                  # params, kernel, solve, verify
    argv: list[str]
    graph: check.Graph | None = None
    expect: dict = field(default_factory=dict)


class Setup:
    """What a corpus build spends in the package: the time inside
    `with setup:` blocks, which hold only package calls and file writes,
    and the bytes written. Drawing the benchmark's own graphs and working
    out the checker's expectations stay outside the blocks."""

    def __init__(self):
        self.s = 0.0
        self.bytes = 0

    def __enter__(self):
        self._start = time.perf_counter()

    def __exit__(self, *exc):
        self.s += time.perf_counter() - self._start


def package_graph(setup: Setup, g: check.Graph) -> Graph:
    with setup:
        return Graph(g.n, g.edges)


def write_ck(setup: Setup, path: str, inst: instance_io.InstanceFile) -> None:
    """Write an instance file with the package's own writer."""
    with setup:
        text = instance_io.write_instance(inst)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    setup.bytes += len(text)


# ---------------------------------------------------------------------------
# graph families of the benchmark's own


def gnm(rng: random.Random, n: int, m: int) -> check.Graph:
    """Uniform graph with exactly m edges: G(n, p) with the edge count pinned,
    so that the cost of a pass varies less between seeds."""
    return check.Graph(n, rng.sample(list(combinations(range(n), 2)), m))


def twin_heavy(rng: random.Random, n: int) -> check.Graph:
    """A sparse base graph on 60% of the vertices plus false-twin copies of
    its degree-1 and degree-2 vertices, one to four copies at a time, so
    that every twin rule fires once per copy."""
    n0 = (3 * n) // 5
    base = gnm(rng, n0, (3 * n0) // 2)
    low = [v for v in range(n0) if 1 <= len(base.adj[v]) <= 2]
    rng.shuffle(low)
    if not low:
        raise ValueError("base graph has no vertex of degree 1 or 2")
    edges = list(base.edges)
    nxt = n0
    while nxt < n:
        for v in low:
            for _ in range(min(rng.randint(1, 4), n - nxt)):
                edges += [(w, nxt) for w in sorted(base.adj[v])]
                nxt += 1
    return check.Graph(n, edges)


def spine_graph(rng: random.Random, n: int, spine: int) -> check.Graph:
    """A connected spine of `spine` vertices with pendant vertices and
    pendant edges hung on it: deleting the spine leaves components of at
    most two vertices, so coc with ell = 2 and k = spine answers yes."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(u, v) for u, v in combinations(range(spine), 2)
              if v > u + 1 and rng.random() < 0.3]
    v = spine
    while v < n:
        hub = rng.randrange(spine)
        edges.append((hub, v))
        if v + 1 < n and rng.random() < 0.5:
            edges.append((v, v + 1))
            edges.append((rng.randrange(spine), v + 1))
            v += 1
        v += 1
    return check.Graph(n, edges)


def split_seed(n: int, density: float, seed: int) -> int:
    """First generator seed, counting up from a seed-derived start, whose
    split graph has the given crossing density and a clique side of n // 2
    vertices.

    This mirrors the first two draws of gen_random_split (clique size, then
    density). Pinning them keeps the three densities in every pass and the
    cost of a pass from swinging with the clique size.
    """
    s = random.Random(f"perfbench:split:{n}:{density}:{seed}").randrange(2 ** 30)
    while True:
        rng = random.Random(f"split:{n}:{s}")
        a = rng.randint(0, n)
        if rng.choice([0.2, 0.4, 0.7]) == density and a == n // 2:
            return s
        s += 1


def with_last_twins(g: check.Graph, count: int) -> check.Graph:
    """g plus a false twin of each of its last `count` vertices. In a split
    graph of split_seed those lie on the independent side, so the graph
    stays split and the dominated-independent-vertex rule deletes one
    vertex per twin, leaving g."""
    edges = list(g.edges)
    for i in range(count):
        edges += [(w, g.n + i) for w in g.adj[g.n - 1 - i]]
    return check.Graph(g.n + count, edges)


# ---------------------------------------------------------------------------
# workloads


def _kernel_ops(tag: str, g: check.Graph, pg: Graph, rng: random.Random,
                workdir: str, setup: Setup) -> list[Op]:
    """params plus every kernel route except ds on one graph; g is the
    checker's copy of the package graph pg."""
    def path(kind):
        return os.path.join(workdir, f"{tag}.{kind}.ck")

    cap = tuple(rng.randint(1, 3) for _ in range(g.n))
    write_ck(setup, path("graph"), instance_io.InstanceFile("graph", pg, 0))
    write_ck(setup, path("capvc"), instance_io.InstanceFile("capvc", pg, KERNEL_K, cap=cap))
    write_ck(setup, path("convc"), instance_io.InstanceFile("convc", pg, KERNEL_K))
    write_ck(setup, path("coc"), instance_io.InstanceFile("coc", pg, KERNEL_K, ell=COC_ELL))
    write_ck(setup, path("im"), instance_io.InstanceFile("im", pg, KERNEL_K))
    ops = [Op(f"{tag}.params", "params", ["params", path("graph")], g)]
    # The closure-number route's bound holds for yes-instances, so it runs
    # with the budget of a connected cover found by depth-first search.
    c_budget = ["--mode", "c", "--k", str(check.dfs_connected_cover(g))]
    for problem, extra in (("capvc", []), ("convc", []),
                           ("convc", c_budget), ("coc", []), ("im", [])):
        mode = "c" if extra else "gamma"
        name = f"{tag}.{problem}" + (".c" if extra else "")
        out = os.path.join(workdir, f"{name}.out.ck")
        trace = os.path.join(workdir, f"{name}.trace.json")
        ops.append(Op(name, "kernel",
                      ["kernel", problem, path(problem), *extra,
                       "--out", out, "--trace", trace], g,
                      {"out": out, "trace": trace, "problem": problem,
                       "mode": mode}))
    return ops


def sparse_kernel(seed: int, workdir: str, setup: Setup) -> list[Op]:
    rng = random.Random(f"perfbench:sparse-kernel:{seed}")
    sparse = gnm(rng, SPARSE_N, 4 * (SPARSE_N - 1))
    twins = twin_heavy(rng, TWIN_N)
    with setup:
        closed = generators.gen_random_weakly_closed(WC_N, WC_GAMMA, seed)
    return (_kernel_ops("gnp", sparse, package_graph(setup, sparse), rng, workdir, setup)
            + _kernel_ops("twins", twins, package_graph(setup, twins), rng, workdir, setup)
            + _kernel_ops("closed", check.from_package(closed), closed, rng, workdir, setup))


def split_ds(seed: int, workdir: str, setup: Setup) -> list[Op]:
    ops = []
    for n, density in zip(SPLIT_N, SPLIT_DENSITIES):
        s = split_seed(n, density, seed)
        with setup:
            split = generators.gen_random_split(n, s)
        # The twins give the domset rules something to delete; the budget
        # of a greedy dominating set makes it a yes-instance.
        g = with_last_twins(check.from_package(split), SPLIT_TWINS)
        pg = package_graph(setup, g)
        k = len(check.greedy_dominating_set(g))
        tag = f"split{n}"
        gpath = os.path.join(workdir, f"{tag}.graph.ck")
        dpath = os.path.join(workdir, f"{tag}.ds.ck")
        write_ck(setup, gpath, instance_io.InstanceFile("graph", pg, 0))
        write_ck(setup, dpath, instance_io.InstanceFile("ds", pg, k))
        out = os.path.join(workdir, f"{tag}.ds.out.ck")
        trace = os.path.join(workdir, f"{tag}.ds.trace.json")
        ops.append(Op(f"{tag}.params", "params", ["params", gpath], g))
        ops.append(Op(f"{tag}.ds", "kernel",
                      ["kernel", "ds", dpath, "--out", out, "--trace", trace], g,
                      {"out": out, "trace": trace, "problem": "ds",
                       "mode": "gamma"}))
    return ops


def certify_small(seed: int, workdir: str, setup: Setup) -> list[Op]:
    rng = random.Random(f"perfbench:certify-small:{seed}")
    ops = []
    for suite in check.SUITES:
        trials = VERIFY_TRIALS.get(suite)
        ops.append(Op(f"verify.{suite}", "verify",
                      ["verify", "--suite", suite, "--seed", str(VERIFY_SEED),
                       *(["--trials", str(trials)] if trials else []),
                       "--dump-dir", os.path.join(workdir, "counterexamples")],
                      expect={"suites": [suite]}))

    # The gadget is the CLI's default capvc-hard instance for every seed.
    universe = 3 * GADGET_K
    family = cli._random_triples(universe, 2 * GADGET_K + 1, 0)
    with setup:
        inst = generators.gen_capvc_lowerbound(universe, family, 3, GADGET_K)
    path = os.path.join(workdir, "capvc-hard.ck")
    write_ck(setup, path, instance_io.from_problem(inst))
    ops.append(Op("capvc-hard", "solve",
                  ["solve", "capvc", path, "--oracle-cap", str(ORACLE_CAP),
                   "--witness", path + ".witness"], check.from_package(inst.graph),
                  {"problem": "capvc", "k": inst.k, "cap": list(inst.cap),
                   "answer": check.exact_set_cover(universe, family, GADGET_K),
                   "witness": path + ".witness"}))

    im = gnm(rng, 22, 33)
    ds_seed = split_seed(22, 0.4, seed)
    with setup:
        ds_pg = generators.gen_random_split(22, ds_seed)
    ds = check.from_package(ds_pg)
    coc = spine_graph(rng, 22, 6)
    for problem, g, pg, k, ell in (
            ("im", im, package_graph(setup, im), len(check.greedy_induced_matching(im)), None),
            ("ds", ds, ds_pg, len(check.greedy_dominating_set(ds)), None),
            ("coc", coc, package_graph(setup, coc), 6, COC_ELL)):
        path = os.path.join(workdir, f"{problem}.ck")
        write_ck(setup, path, instance_io.InstanceFile(problem, pg, k, ell=ell))
        ops.append(Op(problem, "solve",
                      ["solve", problem, path, "--witness", path + ".witness"],
                      g, {"problem": problem, "k": k, "ell": ell,
                          "answer": True, "witness": path + ".witness"}))
    return ops


WORKLOADS = {
    "sparse-kernel": sparse_kernel,
    "split-ds": split_ds,
    "certify-small": certify_small,
}


def build(workload: str, seed: int, workdir: str) -> tuple[list[Op], Setup]:
    """Write the workload's files into workdir; returns the ops and what
    the build spent in the package."""
    os.makedirs(workdir, exist_ok=True)
    setup = Setup()
    ops = WORKLOADS[workload](seed, workdir, setup)
    return ops, setup
