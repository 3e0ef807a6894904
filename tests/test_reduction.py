"""The shared reduction driver: priority order, restart after a fire, stop
on a decision."""

from closurekernels.reduction import Decided, exhaust


def _halve_even(x):
    return (x // 2, {"rule": "halve", "from": x}) if x % 2 == 0 and x > 0 else (x, None)


def _drop_three(x):
    return (x - 3, {"rule": "drop", "from": x}) if x >= 3 else (x, None)


def _decide_at_one(x):
    return (Decided(True, "one"), {"rule": "one", "decided": "yes"}) if x == 1 else (x, None)


def test_restarts_from_first_rule_after_each_fire():
    # 11 -> drop 8 -> halve 4 -> halve 2 -> halve 1; the halving rule comes
    # first, so it runs again after every drop
    out, trace = exhaust(11, (_halve_even, _drop_three))
    assert out == 1
    assert [(e["rule"], e["from"]) for e in trace] == [
        ("drop", 11), ("halve", 8), ("halve", 4), ("halve", 2)]


def test_nothing_fires_returns_input_and_empty_trace():
    assert exhaust(1, (_halve_even, _drop_three)) == (1, [])
    assert exhaust(5, ()) == (5, [])


def test_stops_at_a_decision_with_its_entry_last():
    out, trace = exhaust(4, (_decide_at_one, _halve_even))
    assert out == Decided(True, "one")
    assert [e["rule"] for e in trace] == ["halve", "halve", "one"]
