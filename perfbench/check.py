"""Output checks that share no code with closurekernels.

Each check recomputes what it needs from the instance files with the simple
definitions: its own parser, its own closure and degeneracy, and its own
predicates for witnesses. A check returns a list of problems; an empty list
means the output passed.
"""
from __future__ import annotations

import functools
import json
from itertools import combinations

SUITES = ("parameter-engines", "rule-safety", "setcover-gadget",
          "composition-patterns", "kernel-size-bounds", "biclique-certificate",
          "ramsey-guarantee", "vclp-exactness", "determinism")

# Problems whose kernel trace carries no size bound (`"bound": null`).
UNBOUNDED_KERNELS = ("coc", "im")


class Graph:
    """Undirected simple graph on 0..n-1 with sorted edges and bitset rows.
    Its closure and degeneracy are computed once, on first use."""

    def __init__(self, n: int, edges):
        self.n = n
        self.edges = sorted({(min(u, v), max(u, v)) for u, v in edges})
        self.m = len(self.edges)
        self.adj = [set() for _ in range(n)]
        for u, v in self.edges:
            self.adj[u].add(v)
            self.adj[v].add(u)
        self.rows = [sum(1 << w for w in a) for a in self.adj]

    def wedges(self) -> int:
        """Sum over vertices of C(deg, 2): the work of wedge-based counting."""
        return sum(len(a) * (len(a) - 1) // 2 for a in self.adj)

    @functools.cached_property
    def closure(self) -> int:
        """1 + max over nonadjacent pairs of their common-neighbour count."""
        best = 0
        for v in range(self.n):
            for w in range(v + 1, self.n):
                if w not in self.adj[v]:
                    best = max(best, (self.rows[v] & self.rows[w]).bit_count())
        return 1 + best

    @functools.cached_property
    def degeneracy(self) -> int:
        deg = [len(a) for a in self.adj]
        alive = set(range(self.n))
        best = 0
        while alive:
            v = min(alive, key=lambda u: deg[u])
            best = max(best, deg[v])
            alive.remove(v)
            for w in self.adj[v]:
                if w in alive:
                    deg[w] -= 1
        return best


def from_package(g) -> Graph:
    return Graph(g.n, g.edges())


def parse_ck(text: str) -> dict:
    """Header fields, `cap` values and edges of a `.ck` file, labels as given."""
    head, cap, edges = None, {}, []
    for line in text.splitlines():
        tok = line.split()
        if not tok or tok[0] == "c":
            continue
        if tok[0] == "p":
            head = tok[1:]
        elif tok[0] == "cap":
            cap[int(tok[1])] = int(tok[2])
        elif tok[0] == "e":
            edges.append((int(tok[1]), int(tok[2])))
        else:
            raise ValueError(f"unexpected record {tok[0]!r}")
    if head is None:
        raise ValueError("missing header")
    return {"kind": head[0], "n": int(head[1]), "m": int(head[2]),
            "k": int(head[3]), "cap": cap, "edges": edges}


# ---------------------------------------------------------------------------
# witness predicates


def is_connected(g: Graph, s: set[int]) -> bool:
    if not s:
        return True
    start = min(s)
    seen, stack = {start}, [start]
    while stack:
        for w in g.adj[stack.pop()] & s:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == s


def components_at_most(g: Graph, gone: set[int], ell: int) -> bool:
    rest = set(range(g.n)) - gone
    while rest:
        comp = {rest.pop()}
        stack = list(comp)
        while stack:
            for w in g.adj[stack.pop()] & rest:
                rest.discard(w)
                comp.add(w)
                stack.append(w)
        if len(comp) > ell:
            return False
    return True


def capacitated_cover(g: Graph, s: set[int], cap: list[int]) -> bool:
    """Every edge charged to an endpoint in s, vertex v taking at most
    max(cap[v], 0) edges: one augmenting path per edge."""
    load = {v: [] for v in s}

    def place(e, seen):
        for v in e:
            if v not in s or v in seen:
                continue
            seen.add(v)
            if len(load[v]) < max(cap[v], 0):
                load[v].append(e)
                return True
            # v is in seen, so the recursion never touches load[v]
            for other in load[v]:
                if place(other, seen):
                    load[v].remove(other)
                    load[v].append(e)
                    return True
        return False

    return all(place(e, set()) for e in g.edges)


def greedy_induced_matching(g: Graph) -> list[tuple[int, int]]:
    chosen, blocked = [], set()
    for u, v in g.edges:
        if u in blocked or v in blocked:
            continue
        chosen.append((u, v))
        blocked |= {u, v} | g.adj[u] | g.adj[v]
    return chosen


def dfs_connected_cover(g: Graph) -> int:
    """Size of a connected vertex cover: the inner vertices of a depth-first
    tree of the one component with edges (every non-tree edge joins an
    ancestor to a descendant). 1 when the graph has no connected cover,
    which any budget then decides."""
    start = next((v for v in range(g.n) if g.adj[v]), None)
    if start is None:
        return 1
    parent, seen, stack = {}, set(), [start]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        for w in sorted(g.adj[v], reverse=True):
            if w not in seen:
                parent[w] = v
                stack.append(w)
    if any(g.adj[v] and v not in seen for v in range(g.n)):
        return 1
    inner = {parent[w] for w in seen if w != start and parent.get(w) is not None}
    return max(len(inner), 1)


def greedy_dominating_set(g: Graph) -> list[int]:
    undominated, chosen = set(range(g.n)), []
    while undominated:
        v = max(range(g.n), key=lambda x: (len(({x} | g.adj[x]) & undominated), -x))
        chosen.append(v)
        undominated -= {v} | g.adj[v]
    return chosen


def exact_set_cover(universe: int, family, k: int) -> bool:
    return any(len(set().union(*pick)) == universe and sum(map(len, pick)) == universe
               for pick in combinations(family, k))


# ---------------------------------------------------------------------------
# per-op checks


def _fields(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def check_params(g: Graph, stdout: str) -> list[str]:
    f = _fields(stdout)
    try:
        n, m = int(f["n"]), int(f["m"])
        cl, wc, d = int(f["closure"]), int(f["weak-closure"]), int(f["degeneracy"])
    except (KeyError, ValueError):
        return ["params output lacks n, m, closure, weak-closure or degeneracy"]
    problems = []
    if (n, m) != (g.n, g.m):
        problems.append(f"params reports n={n} m={m}, input has {g.n}, {g.m}")
    if cl != g.closure:
        problems.append(f"closure {cl} != recomputed {g.closure}")
    if d != g.degeneracy:
        problems.append(f"degeneracy {d} != recomputed {g.degeneracy}")
    if not 1 <= wc <= min(cl, d + 1):
        problems.append(f"weak closure {wc} outside [1, min({cl}, {d} + 1)]")
    return problems


def kept_vertices(n: int, rules: list[dict]) -> list[int]:
    """Replay the trace's removals; each entry names vertices in the
    numbering current at its step, which renumbers in ascending order."""
    alive = list(range(n))
    for entry in rules:
        gone = entry.get("removed")
        if gone is None:
            continue
        gone = {gone} if isinstance(gone, int) else set(gone)
        alive = [v for i, v in enumerate(alive) if i not in gone]
    return alive


def check_kernel(g: Graph, expect: dict, stdout: str) -> list[str]:
    try:
        with open(expect["trace"], encoding="utf-8") as fh:
            trace = json.load(fh)
        with open(expect["out"], encoding="utf-8") as fh:
            reduced = parse_ck(fh.read())
    except (OSError, ValueError) as exc:
        return [f"unreadable kernel output: {exc}"]
    problems = []
    params = trace.get("params", {})
    if params.get("closure") != g.closure:
        problems.append(f"trace closure {params.get('closure')} != {g.closure}")
    if params.get("degeneracy") != g.degeneracy:
        problems.append(f"trace degeneracy {params.get('degeneracy')} != {g.degeneracy}")
    bound = trace.get("bound")
    if bound is None:
        if expect["problem"] not in UNBOUNDED_KERNELS or trace.get("decided"):
            problems.append("trace has no size bound")
    elif bound.get("verdict") not in ("within", "decided"):
        problems.append(f"bound verdict {bound.get('verdict')!r}")
    if trace.get("decided") is None and expect["mode"] != "c":
        kept = kept_vertices(g.n, trace.get("rules", []))
        new = {v: i for i, v in enumerate(kept)}
        want = sorted((new[u], new[v]) for u, v in g.edges if u in new and v in new)
        got = sorted((min(u, v), max(u, v)) for u, v in reduced["edges"])
        if reduced["n"] != len(kept) or got != want:
            problems.append("reduced graph is not the input induced on the kept vertices")
    return problems


def check_solve(g: Graph, expect: dict, stdout: str) -> list[str]:
    answer = _fields(stdout).get("answer")
    if answer != ("yes" if expect["answer"] else "no"):
        return [f"answer {answer!r}, expected {'yes' if expect['answer'] else 'no'}"]
    if answer == "no":
        return []
    try:
        with open(expect["witness"], encoding="utf-8") as fh:
            rows = [line.split() for line in fh if line.strip() and line[0] != "c"]
    except OSError as exc:
        return [f"unreadable witness: {exc}"]
    k, problem = expect["k"], expect["problem"]
    if problem == "im":
        pairs = [(int(r[1]), int(r[2])) for r in rows]
        ends = [v for e in pairs for v in e]
        ok = (len(pairs) >= k and len(set(ends)) == len(ends)
              and all(b in g.adj[a] for a, b in pairs)
              and not any(c in g.adj[a] or d in g.adj[a] or c in g.adj[b] or d in g.adj[b]
                          for (a, b), (c, d) in combinations(pairs, 2)))
    else:
        s = {int(r[1]) for r in rows}
        ok = len(s) <= k and {
            "capvc": lambda: capacitated_cover(g, s, expect["cap"]),
            "ds": lambda: all(v in s or g.adj[v] & s for v in range(g.n)),
            "coc": lambda: is_connected(g, s) and components_at_most(g, s, expect["ell"]),
        }[problem]()
    return [] if ok else [f"{problem} witness fails the predicate"]


def check_verify(stdout: str, suites) -> list[str]:
    words = {}
    for line in stdout.splitlines():
        name, sep, rest = line.partition(": ")
        if sep:
            words[name] = rest.split()[0]
    return [f"suite {name}: {words.get(name, 'missing')}"
            for name in suites if words.get(name) != "ok"]


def check_op(op, stdout: str) -> list[str]:
    if op.kind == "params":
        return check_params(op.graph, stdout)
    if op.kind == "kernel":
        return check_kernel(op.graph, op.expect, stdout)
    if op.kind == "solve":
        return check_solve(op.graph, op.expect, stdout)
    return check_verify(stdout, op.expect["suites"])
