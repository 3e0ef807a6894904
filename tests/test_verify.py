"""The cross-checking suites themselves: green on the real rules, red when a
deliberately unsound rule is injected."""

import importlib
import inspect
import subprocess
import sys
import time

import pytest

from closurekernels import oracles as oracles_mod
from closurekernels.suites import determinism, rule_safety
from closurekernels.convc import ConVcInstance
from closurekernels.graph import delete_vertices
from closurekernels.instance_io import parse_instance, to_problem, write_instance
from closurekernels.oracles import OracleResult, solve_is_exact
from closurekernels.reduction import IsInstance
from closurekernels.suites.biclique_certificate import suite_biclique_certificate
from closurekernels.suites.composition_patterns import suite_composition_patterns
from closurekernels.suites.determinism import suite_determinism
from closurekernels.suites.kernel_size_bounds import suite_kernel_size_bounds
from closurekernels.suites.parameter_engines import suite_parameter_engines
from closurekernels.suites.ramsey_guarantee import suite_ramsey_guarantee
from closurekernels.suites.rule_safety import suite_rule_safety
from closurekernels.suites.setcover_gadget import suite_setcover_gadget
from closurekernels.suites.vclp_exactness import suite_vclp_exactness
from closurekernels.verify import SUITES, SuiteResult, run_suite


def test_parameter_engines_passes():
    r = suite_parameter_engines(trials=300, seed=11)
    assert r.passed and r.checked == 300
    assert r.failures == [] and r.artifacts == []


def test_rule_safety_passes_and_covers_every_rule():
    r = suite_rule_safety(trials=60, seed=11)
    assert r.passed
    assert r.checked == 60 * len(rule_safety._rule_cases())


def test_rule_case_names_are_unique():
    names = [name for name, *_ in rule_safety._rule_cases()]
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
    monkeypatch.setattr(oracles_mod, "solve_is_exact",
                        lambda g, k, **_: OracleResult(False))
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
    r = suite_ramsey_guarantee(trials=20, seed=11)
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
    monkeypatch.setattr(sys, "executable", str(fake))
    monkeypatch.setattr(subprocess, "Popen", Recorded)
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
    assert r.failures == ["kernel command exited with code 3: RuntimeError: boom"]


def test_determinism_starts_the_children_before_the_generator_checks(monkeypatch):
    started, seen = [], []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    checks = determinism._generator_checks

    def recorded_checks(rec, seed):
        seen.append(len(started))
        checks(rec, seed)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    monkeypatch.setattr(determinism, "_generator_checks", recorded_checks)
    r = suite_determinism(seed=11)
    assert r.passed and r.checked == 7
    assert seen == [2] and all(p.returncode == 0 for p in started)


def test_rule_safety_answers_each_distinct_instance_once(monkeypatch):
    calls = []
    solve = oracles_mod.solve_exact

    def counted(inst, **kwargs):
        calls.append(inst)
        return solve(inst, **kwargs)

    monkeypatch.setattr(oracles_mod, "solve_exact", counted)
    r = suite_rule_safety(trials=50, seed=0)
    assert r.passed and r.checked == 700
    # a step that did not fire, and a pipeline that ended on the input or on
    # the stepped instance, reuse that answer: asking the oracle about every
    # instance that is not a decision made 1,910 calls
    assert len(calls) == 1232


def _unsound_rule(inst):
    g = inst.graph
    if g.n == 0 or g.m == 0:
        return inst, None
    v = max(g.vertices(), key=lambda u: (g.degree(u), u))
    ng, _ = delete_vertices(g, [v])
    return ConVcInstance(ng, inst.k), {"rule": "bogus", "removed": v}


def test_negative_control_catches_unsound_rule():
    r = suite_rule_safety(trials=60, seed=11,
                          rule_overrides={"convc-twinset": _unsound_rule})
    assert not r.passed
    assert r.failures and r.artifacts
    assert all(a.kind == "convc" for a in r.artifacts)
    assert any("flipped the answer" in msg for msg in r.failures)


def test_rule_override_unknown_name_rejected():
    with pytest.raises(ValueError):
        suite_rule_safety(trials=1, rule_overrides={"nope": _unsound_rule})


def test_failure_collection_is_capped():
    r = suite_rule_safety(trials=500, seed=11,
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
    # the check counts pin every suite's draws: a sampler that draws in a
    # different order changes which instances are checked, and these counts
    assert [r.checked for r in results] == [5, 70, 5, 16, 4, 5, 328, 14, 7]


def test_every_suite_takes_trials_and_seed():
    for name, fn in SUITES.items():
        assert list(inspect.signature(fn).parameters)[:2] == ["trials", "seed"], name
        # and so does the suite function behind the registry entry, each
        # with an integer default trial count and seed 0
        module = name.replace("-", "_")
        suite = getattr(importlib.import_module(f"closurekernels.suites.{module}"),
                        f"suite_{module}")
        trials, seed = list(inspect.signature(suite).parameters.values())[:2]
        assert (trials.name, seed.name, seed.default) == ("trials", "seed", 0), name
        assert isinstance(trials.default, int), name
    assert suite_composition_patterns(trials=3, seed=9).checked == 16


def test_summary_formatting():
    r = SuiteResult("demo")
    for _ in range(11):
        r.ok()
    assert (r.passed, r.summary()) == (True, "demo: ok (11 checks)")
    r.fail("boom")
    assert (r.passed, r.failures, r.artifacts) == (False, ["boom"], [])
    assert r.summary() == "demo: FAIL (12 checks, 1 failures)"


def test_failures_past_the_cap_are_counted_not_kept():
    r = SuiteResult("demo")
    for i in range(7):
        assert r.saturated == (i >= 5)
        r.fail(f"boom {i}", artifact=i)
    assert r.saturated and r.checked == 7
    assert r.failures == [f"boom {i}" for i in range(5)] and r.artifacts == list(range(5))
