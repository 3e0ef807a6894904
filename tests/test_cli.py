"""Command-line behavior: subcommands, exit codes, file outputs."""

import json
import os
import random
import subprocess
import sys

import pytest

from closurekernels.cli import main
from closurekernels.graph import Graph
from closurekernels.instance_io import InstanceFile, parse_instance, write_instance
from closurekernels.oracles import (
    OracleResult,
    is_dominating_set,
    is_induced_matching,
    solve_capvc_exact,
)
from closurekernels import oracles as oracles_mod
from closurekernels import verify as verify_mod

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


C4_GRAPH = "p graph 4 4 0\ne 0 1\ne 1 2\ne 2 3\ne 3 0\n"
C4_CONVC = "p convc 4 4 3\ne 0 1\ne 1 2\ne 2 3\ne 3 0\n"
C4_IM = "p im 4 4 1\ne 0 1\ne 1 2\ne 2 3\ne 3 0\n"
C4_CAPVC = "p capvc 4 4 2\ncap 0 2\ncap 1 2\ncap 2 2\ncap 3 2\ne 0 1\ne 1 2\ne 2 3\ne 3 0\n"
# a triangle 0-1-2 with independent vertices 3 (on 0, 1) and 4 (on 2)
SPLIT_DS = "p ds 5 6 2\ne 0 1\ne 0 2\ne 1 2\ne 0 3\ne 1 3\ne 2 4\n"


class TestParams:
    def test_c4(self, capsys, tmp_path):
        code, out, _ = run(capsys, "params", write(tmp_path, "a.ck", C4_GRAPH))
        assert code == 0
        assert "closure: 3" in out
        assert "weak-closure: 3" in out
        assert "degeneracy: 2" in out
        assert "omega: 2" in out
        assert "check weak-closure <= closure: ok" in out
        assert "check weak-closure <= degeneracy + 1: ok" in out

    def test_complete_bipartite_2_5(self, capsys, tmp_path):
        edges = "".join(f"e {u} {v}\n" for u in (0, 1) for v in range(2, 7))
        path = write(tmp_path, "a.ck", "p graph 7 10 0\n" + edges)
        code, out, _ = run(capsys, "params", path)
        assert code == 0
        assert "closure: 6" in out and "weak-closure: 3" in out
        assert "degeneracy: 2" in out

    def test_k5(self, capsys, tmp_path):
        edges = "".join(f"e {u} {v}\n" for u in range(5) for v in range(u + 1, 5))
        path = write(tmp_path, "a.ck", "p graph 5 10 0\n" + edges)
        code, out, _ = run(capsys, "params", path)
        assert code == 0
        assert "closure: 1" in out and "weak-closure: 1" in out
        assert "degeneracy: 4" in out and "omega: 5" in out

    def test_omega_skipped_above_cap(self, capsys, tmp_path):
        path = write(tmp_path, "a.ck", C4_GRAPH)
        code, out, _ = run(capsys, "params", path, "--oracle-cap", "3")
        assert code == 0
        assert "omega: skipped (n above --oracle-cap 3)" in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "params", "/no/such/file.ck")
        assert code == 2 and "cannot read" in err


class TestKernel:
    def test_capvc_star_trace(self, capsys, tmp_path):
        text = "p capvc 5 4 1\ncap 0 4\ne 0 1\ne 0 2\ne 0 3\ne 0 4\n"
        src = write(tmp_path, "a.ck", text)
        out_path = str(tmp_path / "red.ck")
        trace_path = str(tmp_path / "tr.json")
        code, out, _ = run(capsys, "kernel", "capvc", src,
                           "--out", out_path, "--trace", trace_path)
        assert code == 0 and "rule applications" in out
        trace = json.loads(open(trace_path).read())
        assert trace["schema_version"] == 1
        assert [r["rule"] for r in trace["rules"]] == ["twin-class", "twin-class"]
        assert trace["input"]["n"] == 5 and trace["output"]["n"] == 3
        assert trace["bound"]["verdict"] == "within"
        reduced = parse_instance(open(out_path).read())
        assert reduced.kind == "capvc" and reduced.graph.n == 3
        # the reduced instance answers like the original
        assert solve_capvc_exact(reduced.graph, reduced.cap, reduced.k).answer

    def test_problem_defaults_to_file_kind(self, capsys, tmp_path):
        src = write(tmp_path, "a.ck", C4_CONVC)
        code, out, _ = run(capsys, "kernel", src)
        assert code == 0
        assert out.startswith("p convc 4 4 3")

    def test_convc_mode_c_p5(self, capsys, tmp_path):
        text = "p convc 5 4 3\ne 0 1\ne 1 2\ne 2 3\ne 3 4\n"
        src = write(tmp_path, "a.ck", text)
        trace_path = str(tmp_path / "tr.json")
        code, out, _ = run(capsys, "kernel", "convc", src,
                           "--mode", "c", "--trace", trace_path)
        assert code == 0
        trace = json.loads(open(trace_path).read())
        assert trace["mode"] == "c"
        assert any(r["rule"] == "simplicial" for r in trace["rules"])
        assert trace["decided"] == {"answer": True,
                                    "reason": "vertex 0 alone is a solution"}
        assert trace["bound"] == {"verdict": "decided"}
        # stdout got the canonical decided-yes instance
        assert out.startswith("p convc 0 0 0")

    def test_options_may_sit_anywhere_among_the_operands(self, capsys, tmp_path):
        src = write(tmp_path, "a.ck", "p convc 5 4 3\ne 0 1\ne 1 2\ne 2 3\ne 3 4\n")
        outs = []
        for argv in (["convc", "--mode", "c", src], ["--mode", "c", "convc", src],
                     ["convc", src, "--mode", "c"], ["--mode", "c", src]):
            trace_path = str(tmp_path / "tr.json")
            code, out, err = run(capsys, "kernel", *argv, "--trace", trace_path)
            assert (code, err) == (0, "")
            outs.append((out, open(trace_path).read()))
        assert json.loads(outs[0][1])["mode"] == "c"
        assert outs == [outs[0]] * 4

    @pytest.mark.parametrize("argv, message", [
        (["convc", "a.ck", "b.ck"], "unrecognized arguments: b.ck"),
        (["convc", "--bogus", "a.ck"], "unrecognized arguments: --bogus"),
        (["bogus", "a.ck"], "invalid choice: 'bogus'"),
    ])
    def test_bad_operands_are_usage_errors(self, capsys, argv, message):
        code, _, err = run(capsys, "kernel", *argv)
        assert code == 2 and message in err

    def test_red_marks_route_to_annotated_pipeline(self, capsys, tmp_path):
        text = "p convc 3 2 2\nred 1\ne 0 1\ne 1 2\n"
        src = write(tmp_path, "a.ck", text)
        trace_path = str(tmp_path / "tr.json")
        code, _, _ = run(capsys, "kernel", "convc", src, "--trace", trace_path)
        assert code == 0
        trace = json.loads(open(trace_path).read())
        assert trace["input"]["red"] == [1]
        assert trace["decided"]["answer"] is True

    def test_im_edgeless_reduces_to_trivial_no(self, capsys, tmp_path):
        src = write(tmp_path, "a.ck", "p im 3 0 1\n")
        code, out, _ = run(capsys, "kernel", "im", src)
        assert code == 0
        reduced = parse_instance(out)
        assert reduced.graph.m == 0 and reduced.graph.n <= 1 and reduced.k == 1

    def test_ds_needs_split_graph(self, capsys, tmp_path):
        src = write(tmp_path, "a.ck", "p ds 4 4 1\ne 0 1\ne 1 2\ne 2 3\ne 3 0\n")
        code, _, err = run(capsys, "kernel", "ds", src)
        assert code == 2 and "split" in err

    def test_kind_mismatch(self, capsys, tmp_path):
        src = write(tmp_path, "a.ck", C4_CONVC)
        code, _, err = run(capsys, "kernel", "im", src)
        assert code == 2 and "does not match" in err

    def test_graph_kind_has_no_pipeline(self, capsys, tmp_path):
        src = write(tmp_path, "a.ck", C4_GRAPH)
        code, _, err = run(capsys, "kernel", src)
        assert code == 2 and "no kernel pipeline" in err

    def test_k_override(self, capsys, tmp_path):
        src = write(tmp_path, "a.ck", C4_CONVC)
        trace_path = str(tmp_path / "tr.json")
        code, _, _ = run(capsys, "kernel", "convc", src, "--k", "1",
                         "--trace", trace_path)
        assert code == 0
        assert json.loads(open(trace_path).read())["input"]["k"] == 1

    def test_ell_only_for_coc(self, capsys, tmp_path):
        src = write(tmp_path, "a.ck", C4_CONVC)
        code, _, err = run(capsys, "kernel", "convc", src, "--ell", "2")
        assert code == 2 and "--ell" in err

    def test_coc_pipeline_runs(self, capsys, tmp_path):
        text = "p coc 5 2 1 2\ne 0 1\ne 2 3\n"
        src = write(tmp_path, "a.ck", text)
        code, out, _ = run(capsys, "kernel", "coc", src)
        assert code == 0
        assert parse_instance(out).kind == "coc"

    def test_reruns_are_byte_identical(self, capsys, tmp_path):
        text = "p convc 6 6 2\ne 0 1\ne 0 2\ne 1 2\ne 2 3\ne 3 4\ne 4 5\n"
        src = write(tmp_path, "a.ck", text)
        outputs = []
        # the second run writes over the first run's files, the third to
        # fresh paths
        for i in (0, 0, 1):
            out_path = str(tmp_path / f"red{i}.ck")
            trace_path = str(tmp_path / f"tr{i}.json")
            code, _, _ = run(capsys, "kernel", "convc", src,
                             "--out", out_path, "--trace", trace_path)
            assert code == 0
            outputs.append((open(out_path).read(), open(trace_path).read()))
        assert outputs[0] == outputs[1] == outputs[2]


class TestSolve:
    def test_convc_c4_yes(self, capsys, tmp_path):
        src = write(tmp_path, "a.ck", C4_CONVC)
        code, out, _ = run(capsys, "solve", "convc", src)
        assert code == 0 and "answer: yes" in out

    def test_ds_complete_graph_yes(self, capsys, tmp_path):
        edges = "".join(f"e {u} {v}\n" for u in range(5) for v in range(u + 1, 5))
        src = write(tmp_path, "a.ck", "p ds 5 10 1\n" + edges)
        code, out, _ = run(capsys, "solve", "ds", src)
        assert code == 0 and "answer: yes" in out

    def test_capvc_single_edge_witness_file(self, capsys, tmp_path):
        src = write(tmp_path, "a.ck", "p capvc 2 1 1\ncap 0 1\ne 0 1\n")
        wpath = str(tmp_path / "w.txt")
        code, out, _ = run(capsys, "solve", "capvc", src, "--witness", wpath)
        assert code == 0 and "answer: yes" in out and "validated" in out
        assert "v 0" in open(wpath).read()

    def test_no_answer(self, capsys, tmp_path):
        src = write(tmp_path, "a.ck", C4_CONVC)
        code, out, _ = run(capsys, "solve", "convc", src, "--k", "1")
        assert code == 0 and "answer: no" in out

    def test_plain_is(self, capsys, tmp_path):
        src = write(tmp_path, "a.ck", "p is 4 4 2\ne 0 1\ne 1 2\ne 2 3\ne 3 0\n")
        code, out, _ = run(capsys, "solve", "is", src)
        assert code == 0 and "answer: yes" in out

    @pytest.mark.parametrize("text", [
        "p is 4 4 2\ne 0 1\ne 1 2\ne 2 3\ne 3 0\n", C4_IM, C4_CONVC, C4_CAPVC, SPLIT_DS,
    ], ids=["is", "im", "convc", "capvc", "ds"])
    def test_negative_budget_is_a_usage_error(self, capsys, tmp_path, text):
        src = write(tmp_path, "a.ck", text)
        kind = text.split()[1]
        code, out, err = run(capsys, "solve", kind, src, "--k", "-1")
        assert (code, out) == (2, "")
        assert err == "error: budget must be nonnegative\n"

    def test_multicolored_is(self, capsys, tmp_path):
        # two clique parts; picking 1 and 3 dodges the single cross edge
        text = "p is 4 3 2\npart 2 1\npart 3 1\ne 0 1\ne 0 2\ne 2 3\n"
        src = write(tmp_path, "a.ck", text)
        code, out, _ = run(capsys, "solve", "is", src)
        assert code == 0 and "answer: yes" in out

    def test_im_solve(self, capsys, tmp_path):
        text = "p im 4 2 1\ne 0 1\ne 2 3\n"
        src = write(tmp_path, "a.ck", text)
        wpath = str(tmp_path / "w.txt")
        code, out, _ = run(capsys, "solve", "im", src, "--witness", wpath)
        assert code == 0 and "answer: yes" in out
        assert "e 0 1" in open(wpath).read()

    @pytest.mark.parametrize("kind", ["ds", "im"])
    def test_witness_names_input_labels(self, capsys, tmp_path, kind):
        # a path on 7 vertices whose labels are neither dense nor 0-based
        labels = [5, 12, 19, 26, 33, 40, 47]
        edges = "".join(f"e {labels[i]} {labels[i + 1]}\n" for i in range(6))
        text = f"p {kind} 7 6 {3 if kind == 'ds' else 2}\n" + edges
        src = write(tmp_path, "a.ck", text)
        wpath = str(tmp_path / "w.txt")
        code, out, _ = run(capsys, "solve", kind, src, "--witness", wpath)
        assert code == 0 and "answer: yes" in out
        inst = parse_instance(text)
        named = [[int(tok) for tok in line.split()[1:]]
                 for line in open(wpath).read().splitlines()[1:]]
        assert named and all(lab in labels for item in named for lab in item)
        dense = [[inst.labels.index(lab) for lab in item] for item in named]
        if kind == "ds":
            chosen = [v for (v,) in dense]
            assert is_dominating_set(inst.graph, chosen) and len(chosen) <= inst.k
        else:
            chosen = [tuple(e) for e in dense]
            assert is_induced_matching(inst.graph, chosen) and len(chosen) >= inst.k

    def test_oracle_cap_message_names_flag(self, capsys, tmp_path):
        src = write(tmp_path, "a.ck", C4_CONVC)
        code, _, err = run(capsys, "solve", "convc", src, "--oracle-cap", "3")
        assert code == 2 and "--oracle-cap" in err

    def test_kind_mismatch(self, capsys, tmp_path):
        src = write(tmp_path, "a.ck", C4_GRAPH)
        code, _, err = run(capsys, "solve", "convc", src)
        assert code == 2 and "does not match" in err


def failing_suite(trials=None, seed=0):
    bad = InstanceFile(kind="graph", graph=Graph(2, [(0, 1)]), k=0)
    return verify_mod.SuiteResult("stub", False, 3, ("synthetic failure",), (bad,))


class TestVerifyCommand:
    def test_single_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "composition-patterns")
        assert code == 0
        assert "composition-patterns: ok (16 checks)" in out

    def test_trials_and_seed_accepted(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "vclp-exactness",
                           "--trials", "10", "--seed", "4")
        assert code == 0 and "vclp-exactness: ok" in out

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "bogus")
        assert code == 2 and "unknown suite" in err

    @pytest.mark.parametrize("trials", ["-3", "0"])
    def test_trials_below_one_are_usage_errors(self, capsys, trials):
        code, out, err = run(capsys, "verify", "--suite", "vclp-exactness", "--trials", trials)
        assert code == 2 and out == ""
        assert err == f"error: --trials must be positive, got {trials}\n"

    def test_failing_suite_dumps_counterexamples(self, capsys, tmp_path,
                                                 monkeypatch):
        monkeypatch.setitem(verify_mod.SUITES, "stub", failing_suite)
        dump = str(tmp_path / "dumps")
        code, out, _ = run(capsys, "verify", "--suite", "stub",
                           "--dump-dir", dump)
        assert code == 1
        assert "stub: FAIL" in out and "synthetic failure" in out
        dumped = parse_instance(open(f"{dump}/stub-0.ck").read())
        assert dumped.graph.m == 1

    def test_failed_kernel_child_is_a_suite_failure(self, capsys, tmp_path,
                                                    monkeypatch):
        child = tmp_path / "python"
        child.write_text("#!/bin/sh\necho 'Traceback (most recent call last):' >&2\n"
                         "echo 'ModuleNotFoundError: boom' >&2\nexit 1\n")
        child.chmod(0o755)
        monkeypatch.setattr(verify_mod.sys, "executable", str(child))
        code, out, err = run(capsys, "verify", "--suite", "determinism",
                             "--dump-dir", str(tmp_path / "dumps"))
        assert code == 1 and err == ""
        assert "determinism: FAIL" in out
        assert "kernel command exited with code 1: ModuleNotFoundError: boom" in out
        assert not (tmp_path / "dumps").exists()


class TestGenerate:
    def test_every_family_parses(self, capsys):
        cases = [
            ("split", "--n", "8", "--seed", "3"),
            ("bipartite", "--n", "8", "--seed", "3"),
            ("weakly-closed", "--n", "8", "--gamma", "2", "--seed", "3"),
            ("k-ab", "--a", "2", "--b", "5"),
            ("capvc-hard", "--k", "1", "--seed", "3"),
            ("is-grid", "--t", "2", "--q", "2", "--pattern", "0110"),
        ]
        for family, *flags in cases:
            code, out, _ = run(capsys, "generate", family, *flags)
            assert code == 0, family
            parse_instance(out)

    def test_k_ab_content(self, capsys):
        code, out, _ = run(capsys, "generate", "k-ab", "--a", "2", "--b", "5")
        assert code == 0
        inst = parse_instance(out)
        assert inst.graph.n == 7 and inst.graph.m == 10

    def test_capvc_hard_layout(self, capsys):
        code, out, _ = run(capsys, "generate", "capvc-hard", "--k", "2",
                           "--sets", "4", "--seed", "9")
        assert code == 0
        inst = parse_instance(out)
        assert inst.kind == "capvc"
        lam, k = 3, 2
        assert inst.graph.m == 2 * lam * k + 2 * lam * 4 + lam * k * (2 * lam * k - 1)
        assert inst.k == 2 * lam * k + k

    def test_is_grid_budget_and_answer(self, capsys, tmp_path):
        code, out, _ = run(capsys, "generate", "is-grid", "--t", "2",
                           "--q", "2", "--pattern", "1000")
        assert code == 0
        inst = parse_instance(out)
        assert inst.k == 2 * 1 * 2 - 2 * 1 + 1
        src = write(tmp_path, "h.ck", out)
        code, out, _ = run(capsys, "solve", "is", src)
        assert code == 0 and "answer: yes" in out

    def test_is_grid_pattern_validation(self, capsys):
        code, _, err = run(capsys, "generate", "is-grid", "--t", "2",
                           "--q", "2", "--pattern", "01")
        assert code == 2 and "--pattern" in err

    def test_wrap_as_problem_kind(self, capsys):
        code, out, _ = run(capsys, "generate", "split", "--n", "6",
                           "--seed", "5", "--kind", "ds", "--k", "2")
        assert code == 0
        inst = parse_instance(out)
        assert inst.kind == "ds" and inst.k == 2

    def test_wrap_rejects_structured_families(self, capsys):
        code, _, err = run(capsys, "generate", "capvc-hard", "--k", "1",
                           "--kind", "ds")
        assert code == 2 and "--kind" in err

    @pytest.mark.parametrize("argv, flag", [
        (("split", "--n", "4", "--kind", "convc", "--k", "-2"), "--k -2"),
        (("split", "--n", "4", "--kind", "coc", "--ell", "0"), "--ell 0"),
        (("split", "--n", "4", "--kind", "coc", "--ell", "5"), "--ell 5"),
        (("capvc-hard", "--k", "2", "--sets", "-1"), "--sets"),
        (("capvc-hard", "--k", "2", "--sets", "100"), "--sets"),
    ], ids=["negative-k", "zero-ell", "ell-above-max", "negative-sets", "too-many-sets"])
    def test_counts_that_cannot_hold_are_usage_errors(self, capsys, argv, flag):
        code, out, err = run(capsys, "generate", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and flag in err

    def test_coc_wrap_keeps_the_ell_it_is_given(self, capsys):
        code, out, _ = run(capsys, "generate", "split", "--n", "4", "--kind", "coc")
        assert code == 0 and parse_instance(out).ell == 2
        code, out, _ = run(capsys, "generate", "split", "--n", "4", "--kind", "coc",
                           "--ell", "3")
        assert code == 0 and parse_instance(out).ell == 3

    def test_capvc_hard_takes_every_set_of_the_pool(self, capsys):
        code, out, _ = run(capsys, "generate", "capvc-hard", "--k", "2", "--sets", "20")
        assert code == 0
        lam, k = 3, 2
        assert parse_instance(out).graph.m == \
            2 * lam * k + 2 * lam * 20 + lam * k * (2 * lam * k - 1)

    def test_same_seed_same_bytes(self, capsys):
        args = ("generate", "weakly-closed", "--n", "9", "--gamma", "2",
                "--seed", "12")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


class TestOutputFiles:
    """Output files keep the semantics of a truncating text-mode write."""

    TEXT = "p convc 6 6 2\ne 0 1\ne 0 2\ne 1 2\ne 2 3\ne 3 4\ne 4 5\n"

    def reduced(self, capsys, tmp_path):
        src = write(tmp_path, "a.ck", self.TEXT)
        code, out, _ = run(capsys, "kernel", "convc", src)
        assert code == 0
        return src, out

    def test_shorter_file_over_longer_leaves_only_new_bytes(self, capsys, tmp_path):
        src, expected = self.reduced(capsys, tmp_path)
        out_path = write(tmp_path, "red.ck", "c stale\n" * 1000)
        trace_path = write(tmp_path, "tr.json", "x" * 100000)
        assert run(capsys, "kernel", "convc", src, "--out", out_path,
                   "--trace", trace_path)[0] == 0
        assert open(out_path).read() == expected
        trace_text = open(trace_path).read()
        assert trace_text.endswith("}\n") and json.loads(trace_text)["problem"] == "convc"

    def test_symlink_updates_target_and_stays_a_link(self, capsys, tmp_path):
        src, expected = self.reduced(capsys, tmp_path)
        target = write(tmp_path, "target.ck", "c old content, longer than the new\n" * 50)
        link = tmp_path / "link.ck"
        link.symlink_to(target)
        assert run(capsys, "kernel", "convc", src, "--out", str(link))[0] == 0
        assert link.is_symlink() and os.readlink(link) == target
        assert open(target).read() == expected

    def test_hard_link_sees_new_content(self, capsys, tmp_path):
        src, expected = self.reduced(capsys, tmp_path)
        out_path = write(tmp_path, "red.ck", "c old\n" * 500)
        os.link(out_path, tmp_path / "alias.ck")
        assert run(capsys, "kernel", "convc", src, "--out", out_path)[0] == 0
        assert open(tmp_path / "alias.ck").read() == expected
        assert os.stat(out_path).st_ino == os.stat(tmp_path / "alias.ck").st_ino

    def test_new_file_mode_follows_umask(self, capsys, tmp_path):
        src, _ = self.reduced(capsys, tmp_path)
        old = os.umask(0o027)
        try:
            assert run(capsys, "kernel", "convc", src,
                       "--out", str(tmp_path / "red.ck"))[0] == 0
        finally:
            os.umask(old)
        assert os.stat(tmp_path / "red.ck").st_mode & 0o777 == 0o666 & ~0o027

    def test_out_to_dev_null(self, capsys, tmp_path):
        src, _ = self.reduced(capsys, tmp_path)
        assert run(capsys, "kernel", "convc", src, "--out", os.devnull)[0] == 0

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
    def test_out_to_dev_stdout_pipe_matches_stdout_mode(self):
        argv = [sys.executable, "-m", "closurekernels", "generate",
                "weakly-closed", "--n", "40", "--seed", "7"]
        piped = subprocess.run(argv + ["--out", "/dev/stdout"], capture_output=True)
        plain = subprocess.run(argv, capture_output=True)
        assert piped.returncode == plain.returncode == 0, piped.stderr
        assert piped.stdout == plain.stdout and plain.stdout.startswith(b"p graph 40 ")

    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path):
        src, _ = self.reduced(capsys, tmp_path)
        code, _, err = run(capsys, "kernel", "convc", src, "--out", str(tmp_path))
        assert code == 2 and f"cannot write {tmp_path}" in err

    def test_unwritable_trace_is_a_usage_error(self, capsys, tmp_path):
        src, _ = self.reduced(capsys, tmp_path)
        trace = str(tmp_path / "no" / "such" / "t.json")
        code, _, err = run(capsys, "kernel", "convc", src, "--trace", trace)
        assert code == 2 and f"cannot write {trace}: No such file" in err

    def test_unwritable_witness_is_a_usage_error(self, capsys, tmp_path):
        src = write(tmp_path, "a.ck", C4_CONVC)
        witness = str(tmp_path / "no" / "w.txt")
        code, out, err = run(capsys, "solve", "convc", src, "--witness", witness)
        assert code == 2 and f"cannot write {witness}" in err
        assert out == ""

    def test_unwritable_dump_dir_is_a_usage_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setitem(verify_mod.SUITES, "stub", failing_suite)
        dump = os.path.join(write(tmp_path, "file", ""), "dumps")
        code, _, err = run(capsys, "verify", "--suite", "stub", "--dump-dir", dump)
        assert code == 2 and f"cannot write {dump}" in err


class TestLargeSparseInput:
    def test_params_and_kernels_finish_on_g3000(self, capsys, tmp_path):
        # G(n, 8/n) at n = 3000, drawn with its expected edge count: the
        # sparse regime the paper targets. Only completion is checked.
        n = 3000
        rng = random.Random(3000)
        edges = set()
        while len(edges) < 4 * (n - 1):
            u, v = sorted(rng.sample(range(n), 2))
            edges.add((u, v))
        g = Graph(n, sorted(edges))
        graph = write(tmp_path, "g.ck", write_instance(InstanceFile("graph", g, 0)))
        code, out, err = run(capsys, "params", graph)
        assert code == 0 and "weak-closure:" in out, err
        for kind, cap in (("capvc", (2,) * n), ("im", None)):
            src = write(tmp_path, f"{kind}.ck",
                        write_instance(InstanceFile(kind, g, 5, cap=cap)))
            code, _, err = run(capsys, "kernel", kind, src,
                               "--out", str(tmp_path / f"{kind}.out.ck"))
            assert code == 0, err


class TestEntryPoints:
    def test_parse_error_exit_code_and_position(self, capsys, tmp_path):
        src = write(tmp_path, "bad.ck", "p graph 2 1 0\ne 0 x\n")
        code, _, err = run(capsys, "params", src)
        assert code == 3
        assert f"{src}:2:5:" in err

    def test_edge_count_error_points_at_header_m(self, capsys, tmp_path):
        src = write(tmp_path, "hdr.ck", "c a\nc b\np graph 3 5 0\ne 0 1\ne 1 2\n")
        code, _, err = run(capsys, "params", src)
        assert code == 3
        assert err == f"{src}:3:11: header says m=5 but 2 edges given\n"

    def test_usage_error_from_argparse(self, capsys):
        assert main(["kernel"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_internal_error_exit_code(self, capsys, tmp_path, monkeypatch):
        def boom(args):
            raise RuntimeError("broken\ninvariant")

        monkeypatch.setattr("closurekernels.cli.cmd_params", boom)
        code, out, err = run(capsys, "params", write(tmp_path, "a.ck", C4_GRAPH))
        assert code == 4 and out == ""
        assert err == "internal error: RuntimeError: broken invariant\n"
        assert "Traceback" not in err

    def test_witness_failing_recheck_is_internal(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(oracles_mod, "solve_exact",
                            lambda *a, **kw: OracleResult(True, frozenset()))
        code, out, err = run(capsys, "solve", "convc", write(tmp_path, "a.ck", C4_CONVC))
        assert code == 4 and out == ""
        assert err == "internal error: RuntimeError: witness failed validation\n"

    def test_module_invocation(self, tmp_path):
        src = tmp_path / "a.ck"
        src.write_text(C4_GRAPH)
        proc = subprocess.run(
            [sys.executable, "-m", "closurekernels", "params", str(src)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "weak-closure: 3" in proc.stdout


def run_fresh(code: str) -> str:
    """stdout of `code` run in a new interpreter that imports the package
    from src/; fails the test if the interpreter exits nonzero."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestLazyImports:
    """params and kernel never run the code of verify, oracles or generators."""

    def test_kernel_and_params_leave_heavy_modules_unloaded(self, tmp_path):
        src = write(tmp_path, "a.ck", C4_CONVC)
        out = run_fresh(f"""
import sys
from closurekernels import cli
assert cli.main(["kernel", {src!r}, "--out", {str(tmp_path / "o.ck")!r}]) == 0
assert cli.main(["params", {src!r}]) == 0
for name in ("verify", "oracles", "generators"):
    print(name, type(sys.modules["closurekernels." + name]).__name__)
print("ramsey", "closurekernels.ramsey" in sys.modules)
print("subprocess", "subprocess" in sys.modules)
""")
        assert out.splitlines()[-5:] == [
            "verify _LazyModule", "oracles _LazyModule", "generators _LazyModule",
            "ramsey False", "subprocess False"]

    # route: (input file, command before its path, modules that must not run)
    ROUTES = {
        "params": (C4_GRAPH, ["params"],
                   ("capvc", "convc", "domset", "induced_matching", "combinatorics")),
        "kernel-im": (C4_IM, ["kernel", "im"], ("capvc", "convc", "domset")),
        "kernel-convc": (C4_CONVC, ["kernel", "convc"],
                         ("capvc", "domset", "induced_matching", "combinatorics")),
        "kernel-capvc": (C4_CAPVC, ["kernel", "capvc"],
                         ("convc", "domset", "induced_matching", "combinatorics")),
        "kernel-ds": (SPLIT_DS, ["kernel", "ds"], ("capvc", "convc", "induced_matching")),
        "solve-im": (C4_IM, ["solve", "im"], ("verify", "ramsey")),
    }

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_each_route_loads_only_its_modules(self, tmp_path, route):
        """Each call in a fresh interpreter; verify, generators, ramsey,
        subprocess and dataclasses never load on these routes."""
        text, command, unloaded = self.ROUTES[route]
        argv = [*command, write(tmp_path, "a.ck", text)]
        out = run_fresh(f"""
import sys
from closurekernels import cli
assert cli.main({argv!r}) == 0
for name in ("capvc", "convc", "domset", "induced_matching", "combinatorics",
             "oracles", "verify", "generators", "ramsey"):
    module = sys.modules.get("closurekernels." + name)
    print(name, "absent" if module is None else type(module).__name__)
print("dataclasses", "dataclasses" in sys.modules)
print("subprocess", "subprocess" in sys.modules)
""")
        state = dict(line.split() for line in out.splitlines()[-11:])
        for name in unloaded:
            assert state[name] in ("absent", "_LazyModule"), (name, state)
        assert state["dataclasses"] == "False" and state["subprocess"] == "False"
        assert state["verify"] == "_LazyModule" and state["ramsey"] == "absent"
        assert state["generators"] == "_LazyModule"

    def test_generate_leaves_capvc_unloaded(self, tmp_path):
        out = run_fresh(f"""
import sys
from closurekernels import cli
assert cli.main(["generate", "split", "--out", {str(tmp_path / "g.ck")!r}]) == 0
print(type(sys.modules["closurekernels.capvc"]).__name__)
""")
        assert out.splitlines()[-1] == "_LazyModule"

    def test_submodule_import_after_cli_is_usable(self):
        out = run_fresh("import closurekernels.cli\nimport closurekernels.verify\n"
                        "print(closurekernels.verify.run_suite.__name__)")
        assert out == "run_suite\n"

    def test_cli_reuses_a_module_imported_before_it(self):
        out = run_fresh("from closurekernels import verify\nfrom closurekernels import cli\n"
                        "print(cli.verify_mod is verify, type(verify).__name__)")
        assert out == "True module\n"
