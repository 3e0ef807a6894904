"""Tests for the instance file format."""
import pytest
from hypothesis import given, settings, strategies as st

from closurekernels.capvc import CapVcInstance
from closurekernels.convc import AnnotatedConVcInstance, CocInstance, ConVcInstance
from closurekernels.domset import DsInstance
from closurekernels.graph import Graph
from closurekernels.induced_matching import ImInstance
from closurekernels.instance_io import (
    InstanceFile,
    IsInstance,
    ParseError,
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
