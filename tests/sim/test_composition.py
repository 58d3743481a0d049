"""Composite waitables and engine behaviour under nesting and reuse."""

import pytest

from repro.sim import AllOf, Engine, ProcessKilled


def test_allof_of_processes_collects_return_values():
    eng = Engine()

    def worker(delay, value):
        yield eng.timeout(delay)
        return value

    def prog():
        procs = [eng.process(worker(d, d * 10)) for d in (3, 1, 2)]
        return (yield AllOf(eng, procs))

    p = eng.process(prog())
    eng.run()
    assert p.value == [30, 10, 20]
    assert eng.now == 3


def test_nested_allof():
    eng = Engine()

    def prog():
        inner = AllOf(eng, [eng.timeout(5, "slow"), eng.timeout(1, "fast")])
        outer = AllOf(eng, [inner, eng.timeout(2, "two")])
        return (yield outer)

    p = eng.process(prog())
    eng.run()
    assert p.value == [["slow", "fast"], "two"]
    assert eng.now == 5


def test_allof_sees_killed_process_as_failure():
    eng = Engine()

    def victim():
        yield eng.timeout(100)

    def prog(v):
        try:
            yield AllOf(eng, [v, eng.timeout(1)])
        except ProcessKilled:
            return "observed-kill"

    v = eng.process(victim())
    p = eng.process(prog(v))
    eng.schedule(0.5, v.kill)
    eng.run()
    assert p.value == "observed-kill"


def test_engine_run_twice_continues():
    eng = Engine()
    seen = []
    eng.schedule(1, seen.append, 1)
    eng.run()
    eng.schedule(1, seen.append, 2)  # relative to now=1
    eng.run()
    assert seen == [1, 2]
    assert eng.now == 2


def test_process_spawning_processes_recursively():
    eng = Engine()
    results = []

    def leaf(n):
        yield eng.timeout(0.1)
        return n

    def branch(depth):
        if depth == 0:
            value = yield eng.process(leaf(99))
            return value
        child = eng.process(branch(depth - 1))
        value = yield child
        results.append(depth)
        return value

    p = eng.process(branch(5))
    eng.run()
    assert p.value == 99
    assert results == [1, 2, 3, 4, 5]


def test_charge_outside_process_only_advances_time():
    eng = Engine()

    def prog():
        yield eng.charge(0.5)

    # charge() called outside a process context: valid, books nowhere.
    timeout = eng.charge(0.25)
    waiter = eng.process(prog())
    eng.run()
    assert waiter.cpu_time == pytest.approx(0.5)


def test_event_value_broadcast_is_shared_not_copied():
    eng = Engine()
    ev = eng.event()
    payload = {"k": 1}
    seen = []

    def reader():
        value = yield ev
        seen.append(value)

    eng.process(reader())
    eng.process(reader())
    eng.schedule(1, ev.succeed, payload)
    eng.run()
    assert seen[0] is payload and seen[1] is payload
