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
structure. When fewer than n labels are mentioned, the unmentioned
vertices take the unused integers in 0..n-1, which is only possible while
labels stay in range.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

from .capvc import CapVcInstance
from .convc import AnnotatedConVcInstance, CocInstance, ConVcInstance
from .domset import DsInstance
from .graph import Graph
from .induced_matching import ImInstance

KINDS = ("graph", "capvc", "convc", "coc", "im", "ds", "is")


class ParseError(ValueError):
    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col
        self.message = message


@dataclass(frozen=True)
class InstanceFile:
    kind: str
    graph: Graph
    k: int
    ell: int | None = None
    cap: tuple[int, ...] | None = None
    red: tuple[int, ...] = ()
    parts: tuple[int, ...] | None = None
    labels: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown instance kind {self.kind!r}")
        if not self.labels:
            object.__setattr__(self, "labels", tuple(range(self.graph.n)))
        if len(self.labels) != self.graph.n:
            raise ValueError("label table length must equal vertex count")
        if (self.ell is not None) != (self.kind == "coc"):
            raise ValueError("ell is present exactly for coc instances")
        if self.cap is not None and len(self.cap) != self.graph.n:
            raise ValueError("capacity vector length must equal vertex count")
        if self.parts is not None and len(self.parts) != self.graph.n:
            raise ValueError("part vector length must equal vertex count")


def _tokens(line: str) -> list[tuple[str, int]]:
    return [(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", line)]


def parse_instance(text: str) -> InstanceFile:
    header = None
    caps: dict[int, tuple[int, int]] = {}
    reds: dict[int, int] = {}
    parts: dict[int, tuple[int, int]] = {}
    edge_labels: list[tuple[int, int, int]] = []
    mentioned: set[int] = set()

    def bail(line_no: int, col: int, msg: str):
        raise ParseError(line_no, col, msg)

    def intval(tok: str, line_no: int, col: int, what: str) -> int:
        if not (tok.isascii() and tok.isdigit()):
            bail(line_no, col, f"{what} must be a nonnegative integer, got {tok!r}")
        return int(tok)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        toks = _tokens(raw)
        if not toks or toks[0][0] == "c":
            continue
        tag, tag_col = toks[0]
        if tag == "p":
            if header is not None:
                bail(line_no, tag_col, "duplicate header")
            if len(toks) not in (5, 6):
                bail(line_no, tag_col, "header needs: p kind n m k [ell]")
            kind = toks[1][0]
            if kind not in KINDS:
                bail(line_no, toks[1][1], f"unknown kind {kind!r}")
            n = intval(toks[2][0], line_no, toks[2][1], "n")
            m = intval(toks[3][0], line_no, toks[3][1], "m")
            k = intval(toks[4][0], line_no, toks[4][1], "k")
            ell = None
            if len(toks) == 6:
                if kind != "coc":
                    bail(line_no, toks[5][1], "ell only allowed for coc")
                ell = intval(toks[5][0], line_no, toks[5][1], "ell")
            elif kind == "coc":
                bail(line_no, tag_col, "coc header needs ell")
            header = (kind, n, m, k, ell)
            continue
        if header is None:
            bail(line_no, tag_col, "record before header")
        kind = header[0]
        if tag == "e":
            if len(toks) != 3:
                bail(line_no, tag_col, "edge needs: e u v")
            u = intval(toks[1][0], line_no, toks[1][1], "endpoint")
            v = intval(toks[2][0], line_no, toks[2][1], "endpoint")
            if u == v:
                bail(line_no, toks[1][1], "self-loop")
            edge_labels.append((u, v, line_no))
            mentioned.update((u, v))
        elif tag == "cap":
            if kind != "capvc":
                bail(line_no, tag_col, "cap only allowed for capvc")
            if len(toks) != 3:
                bail(line_no, tag_col, "capacity needs: cap v x")
            v = intval(toks[1][0], line_no, toks[1][1], "vertex")
            x = intval(toks[2][0], line_no, toks[2][1], "capacity")
            if v in caps:
                bail(line_no, toks[1][1], f"duplicate capacity for {v}")
            caps[v] = (x, line_no)
            mentioned.add(v)
        elif tag == "red":
            if kind != "convc":
                bail(line_no, tag_col, "red only allowed for convc")
            if len(toks) != 2:
                bail(line_no, tag_col, "red needs: red v")
            v = intval(toks[1][0], line_no, toks[1][1], "vertex")
            reds[v] = line_no
            mentioned.add(v)
        elif tag == "part":
            if kind != "is":
                bail(line_no, tag_col, "part only allowed for is")
            if len(toks) != 3:
                bail(line_no, tag_col, "part needs: part v i")
            v = intval(toks[1][0], line_no, toks[1][1], "vertex")
            i = intval(toks[2][0], line_no, toks[2][1], "part index")
            if v in parts:
                bail(line_no, toks[1][1], f"duplicate part for {v}")
            parts[v] = (i, line_no)
            mentioned.add(v)
        else:
            bail(line_no, tag_col, f"unknown record {tag!r}")

    if header is None:
        raise ParseError(1, 1, "missing header")
    kind, n, m, k, ell = header

    if len(mentioned) > n:
        raise ParseError(1, 1, f"{len(mentioned)} labels mentioned but n={n}")
    if mentioned and max(mentioned) >= n and len(mentioned) < n:
        raise ParseError(
            1, 1, "out-of-range labels combined with unmentioned vertices")
    if len(mentioned) < n:
        spare = [x for x in range(n) if x not in mentioned]
        labels = sorted(mentioned | set(spare[:n - len(mentioned)]))
    else:
        labels = sorted(mentioned)
    dense = {lab: i for i, lab in enumerate(labels)}

    edges = []
    seen_pairs = set()
    for u, v, line_no in edge_labels:
        pair = (min(u, v), max(u, v))
        if pair in seen_pairs:
            raise ParseError(line_no, 1, f"duplicate edge {pair}")
        seen_pairs.add(pair)
        edges.append((dense[u], dense[v]))
    g = Graph(n, edges)
    if g.m != m:
        raise ParseError(1, 1, f"header says m={m} but {g.m} edges given")

    cap = None
    if kind == "capvc":
        vec = [0] * n
        for v, (x, _line) in caps.items():
            vec[dense[v]] = x
        cap = tuple(vec)
    red = tuple(sorted(dense[v] for v in reds))
    part_vec = None
    if kind == "is":
        vec = [0] * n
        for v, (i, _line) in parts.items():
            vec[dense[v]] = i
        part_vec = tuple(vec)
    return InstanceFile(kind, g, k, ell, cap, red, part_vec, tuple(labels))


def write_instance(inst: InstanceFile) -> str:
    lab = inst.labels
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
    for u, v in sorted((min(lab[a], lab[b]), max(lab[a], lab[b]))
                       for a, b in inst.graph.edges()):
        out.append(f"e {u} {v}")
    return "\n".join(out) + "\n"


def to_problem(inst: InstanceFile):
    """The typed problem instance for a parsed file.

    graph files map to the Graph itself; is files map to (Graph, parts, k)
    with parts grouped from the part vector.
    """
    if inst.kind == "graph":
        return inst.graph
    if inst.kind == "capvc":
        return CapVcInstance(inst.graph, inst.cap or (0,) * inst.graph.n,
                             inst.k)
    if inst.kind == "convc":
        if inst.red:
            return AnnotatedConVcInstance(inst.graph, frozenset(inst.red),
                                          inst.k)
        return ConVcInstance(inst.graph, inst.k)
    if inst.kind == "coc":
        return CocInstance(inst.graph, inst.ell, inst.k)
    if inst.kind == "im":
        return ImInstance(inst.graph, inst.k)
    if inst.kind == "ds":
        return DsInstance(inst.graph, inst.k)
    groups: dict[int, list[int]] = {}
    for v in inst.graph.vertices():
        groups.setdefault(inst.parts[v], []).append(v)
    parts = [tuple(groups[i]) for i in sorted(groups)]
    return inst.graph, parts, inst.k


def from_problem(problem, kind: str | None = None) -> InstanceFile:
    """Wrap a typed problem instance back into a writable file structure."""
    if isinstance(problem, CapVcInstance):
        return InstanceFile("capvc", problem.graph, problem.k,
                            cap=problem.cap)
    if isinstance(problem, AnnotatedConVcInstance):
        return InstanceFile("convc", problem.graph, problem.k,
                            red=tuple(sorted(problem.red)))
    if isinstance(problem, ConVcInstance):
        return InstanceFile("convc", problem.graph, problem.k)
    if isinstance(problem, CocInstance):
        return InstanceFile("coc", problem.graph, problem.k,
                            ell=problem.ell)
    if isinstance(problem, ImInstance):
        return InstanceFile("im", problem.graph, problem.k)
    if isinstance(problem, DsInstance):
        return InstanceFile("ds", problem.graph, problem.k)
    if isinstance(problem, Graph):
        return InstanceFile(kind or "graph", problem, 0)
    raise TypeError(f"cannot serialize {type(problem).__name__}")

