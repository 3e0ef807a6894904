"""The cross-checking suites themselves: green on the real rules, red when a
deliberately unsound rule is injected."""

import subprocess
import time

import pytest

from closurekernels import verify as verify_mod
from closurekernels.convc import ConVcInstance
from closurekernels.graph import delete_vertices
from closurekernels.instance_io import IsInstance, parse_instance, to_problem, write_instance
from closurekernels.oracles import OracleResult, solve_is_exact
from closurekernels.verify import (
    RULE_CASES,
    SUITES,
    SuiteResult,
    run_suite,
    suite_biclique_certificate,
    suite_composition_patterns,
    suite_determinism,
    suite_kernel_size_bounds,
    suite_parameter_engines,
    suite_ramsey_guarantee,
    suite_rule_safety,
    suite_setcover_gadget,
    suite_vclp_exactness,
)


def test_parameter_engines_passes():
    r = suite_parameter_engines(trials=300, seed=11)
    assert r.passed and r.checked == 300
    assert r.failures == () and r.artifacts == ()


def test_rule_safety_passes_and_covers_every_rule():
    r = suite_rule_safety(trials_per_rule=60, seed=11)
    assert r.passed
    assert r.checked == 60 * len(RULE_CASES)


def test_rule_case_names_are_unique():
    names = [case.name for case in RULE_CASES]
    assert len(names) == len(set(names))
    assert len(names) == 14


def test_setcover_gadget_passes():
    r = suite_setcover_gadget(trials=40, seed=11)
    assert r.passed and r.checked == 40


def test_composition_patterns_passes():
    r = suite_composition_patterns()
    assert r.passed and r.checked == 16


def test_composition_counterexample_is_the_host_with_its_budget(monkeypatch):
    # an oracle that answers no everywhere is wrong on every yes pattern
    monkeypatch.setattr(verify_mod, "solve_is_exact", lambda g, k, **_: OracleResult(False))
    r = suite_composition_patterns()
    assert not r.passed and r.artifacts
    for artifact in r.artifacts:
        problem = to_problem(parse_instance(write_instance(artifact)))
        assert problem == to_problem(artifact)
        assert isinstance(problem, IsInstance) and problem.k == 3
        assert solve_is_exact(problem.graph, problem.k).answer is True


def test_kernel_size_bounds_passes():
    r = suite_kernel_size_bounds(trials=80, seed=11)
    assert r.passed
    # the suite runs four bound families; sampling must leave all of them
    # with a healthy share of measured yes-instances
    assert r.checked >= 40


def test_biclique_certificate_passes():
    r = suite_biclique_certificate(trials=60, seed=11)
    assert r.passed and r.checked == 60


def test_ramsey_guarantee_passes():
    r = suite_ramsey_guarantee(seed=11, samples_per_size=1)
    assert r.passed and r.checked >= 50


def test_vclp_exactness_passes():
    r = suite_vclp_exactness(trials=60, seed=11)
    assert r.passed and r.checked >= 60


def test_determinism_passes():
    r = suite_determinism(seed=11)
    assert r.passed and r.checked == 7


# Stands in for the interpreter. The hash-seed-2 child announces itself and
# hangs; the hash-seed-1 child fails, but only once it has seen the other
# start, so a run that starts the children one after the other fails with
# a different message.
_FAKE_INTERPRETER = """#!/bin/sh
if [ "$PYTHONHASHSEED" = 2 ]; then
    touch "$MARKS/second-started"
    exec sleep 30
fi
i=0
while [ ! -e "$MARKS/second-started" ] && [ $i -lt 100 ]; do
    sleep 0.1
    i=$((i + 1))
done
[ -e "$MARKS/second-started" ] || { echo "children ran one after the other" >&2; exit 5; }
echo "Traceback (most recent call last):" >&2
echo "RuntimeError: boom" >&2
exit 3
"""


def test_determinism_failing_child_kills_its_sibling(tmp_path, monkeypatch):
    fake = tmp_path / "python"
    fake.write_text(_FAKE_INTERPRETER)
    fake.chmod(0o755)
    started = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setenv("MARKS", str(tmp_path))
    monkeypatch.setattr(verify_mod.sys, "executable", str(fake))
    monkeypatch.setattr(verify_mod.subprocess, "Popen", Recorded)
    t0 = time.monotonic()
    try:
        r = suite_determinism(seed=11)
    finally:
        leftover = [p for p in started if p.returncode is None]
        for proc in leftover:
            proc.kill()
            proc.wait()
    assert not leftover
    assert len(started) == 2 and time.monotonic() - t0 < 20
    assert not r.passed
    assert r.failures == ("kernel command exited with code 3: RuntimeError: boom",)


def _unsound_rule(inst):
    g = inst.graph
    if g.n == 0 or g.m == 0:
        return inst, None
    v = max(g.vertices(), key=lambda u: (g.degree(u), u))
    ng, _ = delete_vertices(g, [v])
    return ConVcInstance(ng, inst.k), {"rule": "bogus", "removed": v}


def test_negative_control_catches_unsound_rule():
    r = suite_rule_safety(trials_per_rule=60, seed=11,
                          rule_overrides={"convc-twinset": _unsound_rule})
    assert not r.passed
    assert r.failures and r.artifacts
    assert all(a.kind == "convc" for a in r.artifacts)
    assert any("flipped the answer" in msg for msg in r.failures)


def test_rule_override_unknown_name_rejected():
    with pytest.raises(ValueError):
        suite_rule_safety(trials_per_rule=1, rule_overrides={"nope": _unsound_rule})


def test_failure_collection_is_capped():
    r = suite_rule_safety(trials_per_rule=500, seed=11,
                          rule_overrides={"convc-twinset": _unsound_rule})
    assert len(r.failures) <= 5


def test_run_suite_dispatch():
    r = run_suite("composition-patterns")
    assert isinstance(r, SuiteResult) and r.name == "composition-patterns"
    with pytest.raises(ValueError):
        run_suite("no-such-suite")


def test_run_all_covers_registry():
    results = [run_suite(name, trials=5, seed=11) for name in SUITES]
    assert [r.name for r in results] == list(SUITES)
    assert all(r.passed for r in results)


def test_summary_formatting():
    ok = SuiteResult("demo", True, 12)
    bad = SuiteResult("demo", False, 12, ("boom",))
    assert ok.summary() == "demo: ok (12 checks)"
    assert bad.summary() == "demo: FAIL (12 checks, 1 failures)"
