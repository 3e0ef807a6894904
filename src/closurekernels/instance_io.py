"""Line-oriented instance files.

Grammar, one record per line, `c` starting a comment line:

    p <kind> <n> <m> <k> [ell]
    cap <v> <x>
    red <v>
    part <v> <i>
    e <u> <v>

Kinds: graph, capvc, convc, coc, im, ds, is. The ell field is present
exactly for coc. Vertex labels are arbitrary nonnegative integers; they
are mapped to dense ids 0..n-1 in ascending label order and the label
table is kept on the parsed instance, so writing parses back to the same
structure. An `InstanceFile`'s label table must therefore strictly ascend:
id order is label order, and the writer relies on it to emit edges in
label order straight from the neighbour tuples. When fewer than n labels
are mentioned, the unmentioned vertices take the unused integers in
0..n-1, which is only possible while labels stay in range.
"""
from __future__ import annotations

import re
from bisect import bisect_right
from operator import lt

from .graph import Graph, Record

KINDS = ("graph", "capvc", "convc", "coc", "im", "ds", "is")


class ParseError(ValueError):
    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col
        self.message = message


class InstanceFile(Record):
    __slots__ = ("kind", "graph", "k", "ell", "cap", "red", "parts", "labels")
    kind: str
    graph: Graph
    k: int
    ell: int | None
    cap: tuple[int, ...] | None
    red: tuple[int, ...]
    parts: tuple[int, ...] | None
    labels: tuple[int, ...]
    _defaults = {"ell": None, "cap": None, "red": (), "parts": None, "labels": ()}

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown instance kind {self.kind!r}")
        if not self.labels:
            object.__setattr__(self, "labels", tuple(range(self.graph.n)))
        if len(self.labels) != self.graph.n:
            raise ValueError("label table length must equal vertex count")
        if not all(map(lt, self.labels, self.labels[1:])):
            raise ValueError("labels must strictly ascend")
        if (self.ell is not None) != (self.kind == "coc"):
            raise ValueError("ell is present exactly for coc instances")
        if self.cap is not None and len(self.cap) != self.graph.n:
            raise ValueError("capacity vector length must equal vertex count")
        if self.parts is not None and len(self.parts) != self.graph.n:
            raise ValueError("part vector length must equal vertex count")


def _column(line: str, i: int) -> int:
    """1-based column of the line's i-th whitespace-separated token. Only
    error paths need it; the parser splits lines with str.split, which
    splits on the same whitespace as this pattern."""
    return [m.start() + 1 for m in re.finditer(r"\S+", line)][i]


def parse_instance(text: str) -> InstanceFile:
    header = None
    caps: dict[int, int] = {}
    reds: set[int] = set()
    parts: dict[int, int] = {}
    tails: list[int] = []
    heads: list[int] = []
    mentioned: set[int] = set()
    lines = text.splitlines()

    def bail(line_no: int, i: int, msg: str):
        """Raise at the i-th token of line line_no."""
        raise ParseError(line_no, _column(lines[line_no - 1], i), msg)

    def intval(toks: list[str], i: int, line_no: int, what: str) -> int:
        tok = toks[i]
        if not (tok.isascii() and tok.isdigit()):
            bail(line_no, i, f"{what} must be a nonnegative integer, got {tok!r}")
        return int(tok)

    for line_no, raw in enumerate(lines, start=1):
        toks = raw.split()
        # a well-formed edge after the header; every other line, malformed
        # edges included, goes through the checks below
        if len(toks) == 3 and toks[0] == "e" and header is not None:
            a, b = toks[1], toks[2]
            if a.isascii() and a.isdigit() and b.isascii() and b.isdigit():
                u, v = int(a), int(b)
                if u != v:
                    tails.append(u)
                    heads.append(v)
                    continue
        if not toks or toks[0] == "c":
            continue
        tag = toks[0]
        if tag == "p":
            if header is not None:
                bail(line_no, 0, "duplicate header")
            if len(toks) not in (5, 6):
                bail(line_no, 0, "header needs: p kind n m k [ell]")
            kind = toks[1]
            if kind not in KINDS:
                bail(line_no, 1, f"unknown kind {kind!r}")
            n = intval(toks, 2, line_no, "n")
            m = intval(toks, 3, line_no, "m")
            k = intval(toks, 4, line_no, "k")
            ell = None
            if len(toks) == 6:
                if kind != "coc":
                    bail(line_no, 5, "ell only allowed for coc")
                ell = intval(toks, 5, line_no, "ell")
            elif kind == "coc":
                bail(line_no, 0, "coc header needs ell")
            header = (kind, n, m, k, ell, line_no)
            continue
        if header is None:
            bail(line_no, 0, "record before header")
        kind = header[0]
        if tag == "e":
            if len(toks) != 3:
                bail(line_no, 0, "edge needs: e u v")
            # well-formed edges took the branch above, so one check fails
            intval(toks, 1, line_no, "endpoint")
            intval(toks, 2, line_no, "endpoint")
            bail(line_no, 1, "self-loop")
        elif tag == "cap":
            if kind != "capvc":
                bail(line_no, 0, "cap only allowed for capvc")
            if len(toks) != 3:
                bail(line_no, 0, "capacity needs: cap v x")
            v = intval(toks, 1, line_no, "vertex")
            x = intval(toks, 2, line_no, "capacity")
            if v in caps:
                bail(line_no, 1, f"duplicate capacity for {v}")
            caps[v] = x
            mentioned.add(v)
        elif tag == "red":
            if kind != "convc":
                bail(line_no, 0, "red only allowed for convc")
            if len(toks) != 2:
                bail(line_no, 0, "red needs: red v")
            v = intval(toks, 1, line_no, "vertex")
            reds.add(v)
            mentioned.add(v)
        elif tag == "part":
            if kind != "is":
                bail(line_no, 0, "part only allowed for is")
            if len(toks) != 3:
                bail(line_no, 0, "part needs: part v i")
            v = intval(toks, 1, line_no, "vertex")
            i = intval(toks, 2, line_no, "part index")
            if v in parts:
                bail(line_no, 1, f"duplicate part for {v}")
            parts[v] = i
            mentioned.add(v)
        else:
            bail(line_no, 0, f"unknown record {tag!r}")

    if header is None:
        raise ParseError(1, 1, "missing header")
    kind, n, m, k, ell, hdr_line = header

    mentioned.update(tails)
    mentioned.update(heads)
    if len(mentioned) > n:
        bail(hdr_line, 2, f"{len(mentioned)} labels mentioned but n={n}")
    if mentioned and max(mentioned) >= n and len(mentioned) < n:
        bail(hdr_line, 2, "out-of-range labels combined with unmentioned vertices")
    if len(mentioned) < n:
        spare = [x for x in range(n) if x not in mentioned]
        labels = sorted(mentioned | set(spare[:n - len(mentioned)]))
    else:
        labels = sorted(mentioned)
    dense = {lab: i for i, lab in enumerate(labels)}

    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in zip(map(dense.__getitem__, tails), map(dense.__getitem__, heads)):
        adj[u].add(v)
        adj[v].add(u)
    if sum(map(len, adj)) != 2 * len(tails):
        line_no, pair = _first_repeated_edge(lines, tails, heads)
        bail(line_no, 0, f"duplicate edge {pair}")
    if len(tails) != m:
        bail(hdr_line, 3, f"header says m={m} but {len(tails)} edges given")
    g = Graph._from_neighbors([tuple(sorted(s)) for s in adj])

    cap = None
    if kind == "capvc":
        vec = [0] * n
        for v, x in caps.items():
            vec[dense[v]] = x
        cap = tuple(vec)
    red = tuple(sorted(dense[v] for v in reds))
    part_vec = None
    if kind == "is":
        vec = [0] * n
        for v, i in parts.items():
            vec[dense[v]] = i
        part_vec = tuple(vec)
    return InstanceFile(kind, g, k, ell, cap, red, part_vec, tuple(labels))


def _first_repeated_edge(lines: list[str], tails: list[int],
                         heads: list[int]) -> tuple[int, tuple[int, int]]:
    """The line of the first edge that repeats an earlier one, and its label
    pair. Every edge line of a file that got this far is well formed, so
    the i-th line tagged `e` holds the i-th edge."""
    edge_lines = (i for i, raw in enumerate(lines, start=1) if raw.split()[:1] == ["e"])
    seen = set()
    for u, v, line_no in zip(tails, heads, edge_lines):
        pair = (min(u, v), max(u, v))
        if pair in seen:
            return line_no, pair
        seen.add(pair)
    raise AssertionError("no repeated edge")


def write_instance(inst: InstanceFile) -> str:
    lab = list(map(str, inst.labels))
    out = []
    head = f"p {inst.kind} {inst.graph.n} {inst.graph.m} {inst.k}"
    if inst.ell is not None:
        head += f" {inst.ell}"
    out.append(head)
    if inst.cap is not None:
        for v in inst.graph.vertices():
            out.append(f"cap {lab[v]} {inst.cap[v]}")
    for v in inst.red:
        out.append(f"red {lab[v]}")
    if inst.parts is not None:
        for v in inst.graph.vertices():
            out.append(f"part {lab[v]} {inst.parts[v]}")
    # labels ascend with ids, so edges (u, v), u < v, in id order are in
    # label order
    for u in inst.graph.vertices():
        nb = inst.graph.neighbors(u)
        tag = "e " + lab[u] + " "
        out += [tag + lab[v] for v in nb[bisect_right(nb, u):]]
    return "\n".join(out) + "\n"


def to_problem(inst: InstanceFile):
    """The typed problem instance for a parsed file.

    graph files map to the Graph itself and is files to a
    `reduction.IsInstance`; every other kind maps to its problem module's
    class, and only that module is imported (a graph file imports none, so
    `params` compiles no problem code).
    """
    g, k = inst.graph, inst.k
    if inst.kind == "graph":
        return g
    if inst.kind == "capvc":
        from .capvc import CapVcInstance
        return CapVcInstance(g, inst.cap or (0,) * g.n, k)
    if inst.kind == "convc":
        from .convc import AnnotatedConVcInstance, ConVcInstance
        if inst.red:
            return AnnotatedConVcInstance(g, frozenset(inst.red), k)
        return ConVcInstance(g, k)
    if inst.kind == "coc":
        from .convc import CocInstance
        return CocInstance(g, inst.ell, k)
    if inst.kind == "im":
        from .induced_matching import ImInstance
        return ImInstance(g, k)
    if inst.kind == "ds":
        from .domset import DsInstance
        return DsInstance(g, k)
    from .reduction import IsInstance
    return IsInstance(g, inst.parts or (0,) * g.n, k)


def from_problem(problem) -> InstanceFile:
    """Wrap a typed problem instance, or a bare Graph as a graph file, back
    into a writable file structure. A problem class names its file kind in
    `file_kind`."""
    if isinstance(problem, Graph):
        return InstanceFile("graph", problem, 0)
    from .reduction import Instance  # loaded already when problem is one
    if not isinstance(problem, Instance):
        raise TypeError(f"cannot serialize {type(problem).__name__}")
    return InstanceFile(problem.file_kind, problem.graph, problem.k, **problem.fields())
