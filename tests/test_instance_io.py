"""Tests for the instance file format."""
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from closurekernels.capvc import CapVcInstance
from closurekernels.convc import AnnotatedConVcInstance, CocInstance, ConVcInstance
from closurekernels.domset import DsInstance
from closurekernels.graph import Graph
from closurekernels.induced_matching import ImInstance
from closurekernels.instance_io import (
    KINDS,
    InstanceFile,
    IsInstance,
    ParseError,
    _column,
    from_problem,
    parse_instance,
    to_problem,
    write_instance,
)


SAMPLE = """c a four cycle with a budget
p convc 4 4 3
e 0 1
e 1 2
e 2 3
e 0 3
"""


class TestParse:
    def test_basic_graph(self):
        inst = parse_instance(SAMPLE)
        assert inst.kind == "convc"
        assert inst.graph.n == 4 and inst.graph.m == 4
        assert inst.k == 3
        assert inst.labels == (0, 1, 2, 3)

    def test_round_trip(self):
        inst = parse_instance(SAMPLE)
        assert parse_instance(write_instance(inst)) == inst

    def test_round_trip_capvc_with_caps(self):
        text = "p capvc 3 2 1\ncap 0 2\ncap 2 1\ne 0 1\ne 0 2\n"
        inst = parse_instance(text)
        assert inst.cap == (2, 0, 1)
        assert parse_instance(write_instance(inst)) == inst

    def test_round_trip_red_and_parts(self):
        text = "p convc 3 1 2\nred 1\ne 0 1\n"
        inst = parse_instance(text)
        assert inst.red == (1,)
        assert parse_instance(write_instance(inst)) == inst
        text = "p is 4 2 2\npart 0 0\npart 1 0\npart 2 1\npart 3 1\ne 0 1\ne 2 3\n"
        inst = parse_instance(text)
        assert inst.parts == (0, 0, 1, 1)
        assert parse_instance(write_instance(inst)) == inst

    def test_coc_needs_ell(self):
        inst = parse_instance("p coc 2 1 1 2\ne 0 1\n")
        assert inst.ell == 2
        with pytest.raises(ParseError):
            parse_instance("p coc 2 1 1\ne 0 1\n")
        with pytest.raises(ParseError):
            parse_instance("p im 2 1 1 2\ne 0 1\n")

    def test_sparse_labels_map_to_dense_ids(self):
        inst = parse_instance("p graph 3 2 0\ne 10 20\ne 10 30\n")
        assert inst.labels == (10, 20, 30)
        assert inst.graph.edges() == [(0, 1), (0, 2)]
        text = write_instance(inst)
        assert "e 10 20" in text
        assert parse_instance(text) == inst

    def test_unmentioned_vertices_fill_in_range_ids(self):
        inst = parse_instance("p graph 4 1 0\ne 1 3\n")
        assert inst.labels == (0, 1, 2, 3)
        assert inst.graph.m == 1

    def test_out_of_range_labels_with_gaps_rejected(self):
        with pytest.raises(ParseError):
            parse_instance("p graph 3 1 0\ne 5 6\n")

    def test_error_positions(self):
        with pytest.raises(ParseError) as err:
            parse_instance("p graph 2 1 0\ne 0 x\n")
        assert err.value.line == 2 and err.value.col == 5
        with pytest.raises(ParseError) as err:
            parse_instance("e 0 1\n")
        assert err.value.line == 1
        with pytest.raises(ParseError):
            parse_instance("p graph 2 1 0\nq 0 1\n")
        with pytest.raises(ParseError):
            parse_instance("p mystery 2 1 0\ne 0 1\n")

    @pytest.mark.parametrize("text, col", [
        ("p convc \u00b2  4 3\n", 9),            # superscript two
        ("p graph 2 1 0\ne 0 \u0661\n", 5),     # Arabic-Indic one
        ("p graph 2 1 \uff10\ne 0 1\n", 13),    # fullwidth zero
    ])
    def test_non_ascii_digits_rejected_with_position(self, text, col):
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert err.value.col == col

    def test_edge_count_must_match(self):
        with pytest.raises(ParseError):
            parse_instance("p graph 2 2 0\ne 0 1\n")
        with pytest.raises(ParseError):
            parse_instance("p graph 2 1 0\ne 0 1\ne 1 0\n")

    def test_duplicate_edge_points_at_its_tag(self):
        with pytest.raises(ParseError) as err:
            parse_instance("p graph 3 2 0\n   e 0 1\n   e 1 0")
        assert str(err.value) == "line 3, column 4: duplicate edge (0, 1)"

    @pytest.mark.parametrize("text, col", [
        ("p graph 2 1 0\ne\u3000 0\tx\n", 6),     # ideographic space, tab
        ("p graph 2 1 0\n\x1f e 0 \xa0y\n", 8),   # unit separator, no-break space
    ])
    def test_unicode_whitespace_separates_tokens(self, text, col):
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert (err.value.line, err.value.col) == (2, col)

    @pytest.mark.parametrize("text, line, col", [
        ("c a\nc b\np graph 3 5 0\ne 0 1\ne 1 2\n", 3, 11),   # m mismatch
        ("c a\n  p graph 2 2 0\ne 0 1\ne 1 2\n", 2, 11),      # labels > n
        ("c a\np graph 3 1 0\ne 5 6\n", 2, 9),               # gaps with out-of-range labels
    ], ids=["m-mismatch", "too-many-labels", "label-gaps"])
    def test_header_count_errors_point_at_header_token(self, text, line, col):
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert (err.value.line, err.value.col) == (line, col)

    def test_self_loop_rejected(self):
        with pytest.raises(ParseError):
            parse_instance("p graph 2 1 0\ne 1 1\n")

    def test_cap_on_wrong_kind_rejected(self):
        with pytest.raises(ParseError):
            parse_instance("p im 2 1 1\ncap 0 1\ne 0 1\n")

    def test_comments_and_blank_lines_skipped(self):
        inst = parse_instance("c hello\n\np graph 2 1 0\nc mid\ne 0 1\n")
        assert inst.graph.m == 1


class TestProblemBridge:
    def test_each_kind_builds_its_problem(self):
        g = Graph(2, [(0, 1)])
        assert isinstance(
            to_problem(InstanceFile("capvc", g, 1, cap=(1, 0))), CapVcInstance)
        assert isinstance(
            to_problem(InstanceFile("convc", g, 1)), ConVcInstance)
        assert isinstance(
            to_problem(InstanceFile("convc", g, 1, red=(0,))),
            AnnotatedConVcInstance)
        assert isinstance(
            to_problem(InstanceFile("coc", g, 1, ell=2)), CocInstance)
        assert isinstance(to_problem(InstanceFile("im", g, 1)), ImInstance)
        assert isinstance(to_problem(InstanceFile("ds", g, 1)), DsInstance)
        assert to_problem(InstanceFile("graph", g, 0)) == g
        got = to_problem(InstanceFile("is", g, 1, parts=(0, 1)))
        assert got == IsInstance(g, (0, 1), 1)
        assert got.groups() == [(0,), (1,)]

    def test_from_problem_round_trip(self):
        g = Graph(3, [(0, 1), (1, 2)])
        for problem in (CapVcInstance(g, (1, 2, 0), 2),
                        ConVcInstance(g, 1),
                        AnnotatedConVcInstance(g, frozenset({2}), 1),
                        CocInstance(g, 2, 1),
                        ImInstance(g, 1),
                        DsInstance(g, 1)):
            inst = from_problem(problem)
            assert to_problem(parse_instance(write_instance(inst))) == problem

    def test_from_problem_rejects_unknown(self):
        with pytest.raises(TypeError):
            from_problem(object())

    def test_labels_must_strictly_ascend(self):
        g = Graph(3, [(0, 1)])
        for labels in ((1, 0, 2), (0, 0, 1), (4, 5, 5)):
            with pytest.raises(ValueError, match="labels must strictly ascend"):
                InstanceFile("graph", g, 0, labels=labels)
        assert InstanceFile("graph", g, 0, labels=(0, 4, 5)).labels == (0, 4, 5)


# One valid file of every kind, each line kind among them: header, comment,
# blank, cap, red, part and edge lines.
VALID_FILES = (
    SAMPLE,
    "p graph 3 2 0\ne 10 20\ne 10 30\n",
    "c caps\np capvc 3 2 1\ncap 0 2\ncap 2 1\ne 0 1\ne 0 2\n",
    "p convc 3 1 2\nred 1\n\ne 0 1\n",
    "p coc 4 3 1 2\ne 0 1\ne 1 2\ne 2 3\n",
    "p im 4 2 1\ne 0 1\ne 2 3\n",
    "p ds 3 3 1\ne 0 1\ne 0 2\ne 1 2\n",
    "p is 4 2 2\npart 0 0\npart 1 0\npart 2 1\npart 3 1\ne 0 1\ne 2 3\n",
)

# Characters the format uses, plus signs, tabs, carriage returns, letters it
# does not use and non-ASCII digits.
_EDIT_CHARS = st.sampled_from(list("0123456789 \n\t\r-+pecrdatl_x.") +
                              ["\u00b2", "\u0661", "\uff10", "\u00e9"])
_EDIT = st.tuples(st.sampled_from(("insert", "delete", "replace")),
                  st.integers(0, 10 ** 6), _EDIT_CHARS)


def _apply_edits(text, edits):
    for op, pos, ch in edits:
        pos %= len(text) + 1
        if op == "insert":
            text = text[:pos] + ch + text[pos:]
        elif op == "delete":
            text = text[:pos] + text[pos + 1:]
        else:
            text = text[:pos] + ch + text[pos + 1:]
    return text


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from(VALID_FILES), st.lists(_EDIT, min_size=1, max_size=4))
def test_mutated_files_parse_or_raise_parse_error(text, edits):
    try:
        parse_instance(_apply_edits(text, edits))
    except ParseError:
        pass


# ---------------------------------------------------------------------------
# the parser and writer against the ones they replaced

def reference_parse_instance(text):
    """The parser that checks every edge line token by token and builds the
    graph through the checked `Graph` constructor."""
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


def reference_write_instance(inst):
    """The writer that sorts the edge list by label pair."""
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


_WHITESPACE = [" ", "\t", "\u3000", "\xa0", "\x1f", "\x0b", "\x1c", "\u2028", "\x85"]
_TOKENS = ["0", "1", "2", "3", "7", "01", "10", "99", "-1", "+1", "e", "p", "c", "cap", "red",
           "part", "x", "\u00b2", "\u0661", "\uff10", *KINDS]


def _random_file(rng):
    """A valid file of a random kind, sparse labels, and comment and blank lines."""
    n = rng.randint(0, 9)
    g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < rng.random()])
    labels = sorted(rng.sample(range(3 * n + 2), n)) if rng.random() < 0.5 else range(n)
    kind = rng.choice(KINDS)
    inst = InstanceFile(kind, g, rng.randint(0, 5), ell=2 if kind == "coc" else None,
                        cap=tuple(rng.randint(0, 3) for _ in range(n)) if kind == "capvc" else None,
                        red=tuple(v for v in range(n) if rng.random() < 0.3) if kind == "convc" else (),
                        parts=tuple(rng.randint(0, 2) for _ in range(n)) if kind == "is" else None,
                        labels=tuple(labels))
    lines = write_instance(inst).splitlines()
    for _ in range(rng.randint(0, 2)):
        lines.insert(rng.randint(0, len(lines)), rng.choice(["", "c note", "  c 1 2"]))
    return "\n".join(lines) + "\n"


def _mutate(text, rng):
    """One random edit: a character, a token, a whole line, or line endings."""
    lines = text.split("\n")
    op = rng.randrange(9)
    i = rng.randrange(len(lines))
    toks = lines[i].split(" ")
    if op == 0:
        pos = rng.randint(0, len(text))
        ch = rng.choice(list("0123456789 \n\r-+pecx") + _WHITESPACE)
        return text[:pos] + ch + text[pos + rng.randint(0, 1):]
    if op == 1:
        toks[rng.randrange(len(toks))] = rng.choice(_TOKENS)
    elif op == 2:
        toks.insert(rng.randint(0, len(toks)), rng.choice(_TOKENS))
    elif op == 3:
        del toks[rng.randrange(len(toks))]
    elif op == 4:
        if toks[0] == "e" and len(toks) == 3:
            toks[1:] = rng.choice([[toks[2], toks[1]], [toks[1], toks[1]], [toks[2], toks[2]]])
        else:
            toks = ["e", str(rng.randint(0, 12)), str(rng.randint(0, 12))]
    elif op == 5:
        lines.insert(rng.randint(0, len(lines)), lines[i])
    elif op == 6:
        del lines[i]
    elif op == 7:
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    else:
        return text.replace("\n", rng.choice(["\r\n", "\r", "\n\n"]))
    if op <= 4:
        lines[i] = rng.choice(_WHITESPACE[:3]).join(toks)
    return "\n".join(lines)


def _outcome(parse, text):
    try:
        inst = parse(text)
    except ParseError as err:
        return "error", err.line, err.col, err.message
    return "ok", inst, [inst.graph.neighbors(v) for v in inst.graph.vertices()], inst.graph.m


def test_parser_matches_the_reference_on_mutated_files():
    rng = random.Random(1601)
    seen = set()
    for trial in range(20000):
        text = rng.choice(VALID_FILES) if trial % 4 == 0 else _random_file(rng)
        for _ in range(rng.randint(0, 3)):
            text = _mutate(text, rng)
        got = _outcome(parse_instance, text)
        assert got == _outcome(reference_parse_instance, text), text
        seen.add(got[0] if got[0] == "ok" else " ".join(got[3].split(" ")[:2]))
    # the files reach both outcomes, the edge line's own errors and those of
    # the checks after the loop
    assert {"ok", "endpoint must", "self-loop", "out-of-range labels", "duplicate edge",
            "header says"} <= seen


def test_writer_matches_the_reference_on_random_files():
    rng = random.Random(1602)
    for _ in range(10000):
        n = rng.randint(0, 12)
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < rng.random()])
        labels = sorted(rng.sample(range(rng.randint(n, 4 * n + 3)), n))
        kind = rng.choice(KINDS)
        inst = InstanceFile(
            kind, g, rng.randint(0, 20), ell=rng.randint(0, 4) if kind == "coc" else None,
            cap=tuple(rng.randint(0, 5) for _ in range(n)) if rng.random() < 0.3 else None,
            red=tuple(v for v in range(n) if rng.random() < 0.2),
            parts=tuple(rng.randint(0, 3) for _ in range(n)) if rng.random() < 0.3 else None,
            labels=tuple(labels))
        assert write_instance(inst) == reference_write_instance(inst)
