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
    caps: dict[int, tuple[int, int]] = {}
    reds: dict[int, int] = {}
    parts: dict[int, tuple[int, int]] = {}
    edge_labels: list[tuple[int, int, int]] = []
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
            u = intval(toks, 1, line_no, "endpoint")
            v = intval(toks, 2, line_no, "endpoint")
            if u == v:
                bail(line_no, 1, "self-loop")
            edge_labels.append((u, v, line_no))
            mentioned.update((u, v))
        elif tag == "cap":
            if kind != "capvc":
                bail(line_no, 0, "cap only allowed for capvc")
            if len(toks) != 3:
                bail(line_no, 0, "capacity needs: cap v x")
            v = intval(toks, 1, line_no, "vertex")
            x = intval(toks, 2, line_no, "capacity")
            if v in caps:
                bail(line_no, 1, f"duplicate capacity for {v}")
            caps[v] = (x, line_no)
            mentioned.add(v)
        elif tag == "red":
            if kind != "convc":
                bail(line_no, 0, "red only allowed for convc")
            if len(toks) != 2:
                bail(line_no, 0, "red needs: red v")
            v = intval(toks, 1, line_no, "vertex")
            reds[v] = line_no
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
            parts[v] = (i, line_no)
            mentioned.add(v)
        else:
            bail(line_no, 0, f"unknown record {tag!r}")

    if header is None:
        raise ParseError(1, 1, "missing header")
    kind, n, m, k, ell, hdr_line = header

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

    edges = []
    seen_pairs = set()
    for u, v, line_no in edge_labels:
        pair = (min(u, v), max(u, v))
        if pair in seen_pairs:
            bail(line_no, 0, f"duplicate edge {pair}")
        seen_pairs.add(pair)
        edges.append((dense[u], dense[v]))
    g = Graph(n, edges)
    if g.m != m:
        bail(hdr_line, 3, f"header says m={m} but {g.m} edges given")

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
    with parts grouped from the part vector. Only the module of the kind
    built is imported.
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
    groups: dict[int, list[int]] = {}
    for v in g.vertices():
        groups.setdefault(inst.parts[v], []).append(v)
    parts = [tuple(groups[i]) for i in sorted(groups)]
    return g, parts, k


def from_problem(problem, kind: str | None = None) -> InstanceFile:
    """Wrap a typed problem instance back into a writable file structure.

    A problem class names its file kind in `file_kind`; `kind` names the
    kind a bare Graph is wrapped as.
    """
    if isinstance(problem, Graph):
        return InstanceFile(kind or "graph", problem, 0)
    file_kind = getattr(problem, "file_kind", None)
    if file_kind is None:
        raise TypeError(f"cannot serialize {type(problem).__name__}")
    return InstanceFile(file_kind, problem.graph, problem.k,
                        ell=getattr(problem, "ell", None),
                        cap=getattr(problem, "cap", None),
                        red=tuple(sorted(getattr(problem, "red", ()))))
