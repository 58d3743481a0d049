"""Events and composite waitables."""

import pytest

from repro.sim import AllOf, Engine, SimError


def test_event_succeed_wakes_waiter_with_value():
    eng = Engine()
    ev = eng.event()
    got = []

    def waiter():
        got.append((yield ev))

    eng.process(waiter())
    eng.schedule(2.0, ev.succeed, "data")
    eng.run()
    assert got == ["data"]
    assert eng.now == 2.0


def test_event_fail_raises_in_waiter():
    eng = Engine()
    ev = eng.event()

    def waiter():
        try:
            yield ev
        except KeyError:
            return "failed-ok"

    p = eng.process(waiter())
    eng.schedule(1.0, ev.fail, KeyError("nope"))
    eng.run()
    assert p.value == "failed-ok"


def test_waiting_on_triggered_event_completes_immediately():
    eng = Engine()
    ev = eng.event().succeed(7)

    def waiter():
        return (yield ev)

    p = eng.process(waiter())
    eng.run()
    assert p.value == 7
    assert eng.now == 0.0


def test_event_cannot_trigger_twice():
    eng = Engine()
    ev = eng.event().succeed()
    with pytest.raises(SimError):
        ev.succeed()


def test_fail_requires_exception_instance():
    eng = Engine()
    with pytest.raises(SimError):
        eng.event().fail("not an exception")


def test_event_broadcasts_to_multiple_waiters():
    eng = Engine()
    ev = eng.event()
    got = []

    def waiter(tag):
        value = yield ev
        got.append((tag, value))

    for t in range(3):
        eng.process(waiter(t))
    eng.schedule(1.0, ev.succeed, "x")
    eng.run()
    assert got == [(0, "x"), (1, "x"), (2, "x")]


def test_allof_collects_values_in_order():
    eng = Engine()

    def prog():
        values = yield AllOf(eng, [eng.timeout(3.0, "slow"), eng.timeout(1.0, "fast")])
        return values

    p = eng.process(prog())
    eng.run()
    assert p.value == ["slow", "fast"]
    assert eng.now == 3.0


def test_allof_empty_completes_at_once():
    eng = Engine()

    def prog():
        return (yield AllOf(eng, []))

    p = eng.process(prog())
    eng.run()
    assert p.value == []


def test_allof_fails_on_first_child_failure():
    eng = Engine()
    bad = eng.event()

    def prog():
        try:
            yield AllOf(eng, [eng.timeout(10.0), bad])
        except ValueError:
            return "failed"

    p = eng.process(prog())
    eng.schedule(1.0, bad.fail, ValueError("x"))
    eng.run()
    assert p.value == "failed"

