"""Engine: clock behaviour, ordering, scheduling discipline."""

import pytest

from repro.sim import Engine, SimError


def test_clock_starts_at_zero():
    assert Engine().now == 0.0


def test_schedule_and_run_advances_clock():
    eng = Engine()
    seen = []
    eng.schedule(2.0, seen.append, "a")
    eng.schedule(1.0, seen.append, "b")
    eng.run()
    assert seen == ["b", "a"]
    assert eng.now == 2.0


def test_ties_break_in_schedule_order():
    eng = Engine()
    seen = []
    for tag in range(5):
        eng.schedule(1.0, seen.append, tag)
    eng.run()
    assert seen == [0, 1, 2, 3, 4]


def test_negative_delay_rejected():
    eng = Engine()
    with pytest.raises(SimError):
        eng.schedule(-0.1, lambda: None)


def test_run_until_stops_clock_exactly():
    eng = Engine()
    seen = []
    eng.schedule(1.0, seen.append, 1)
    eng.schedule(5.0, seen.append, 5)
    eng.run(until=3.0)
    assert seen == [1]
    assert eng.now == 3.0
    eng.run()
    assert seen == [1, 5]
    assert eng.now == 5.0


def test_run_until_with_empty_heap_advances_clock():
    eng = Engine()
    eng.run(until=7.0)
    assert eng.now == 7.0


@pytest.mark.parametrize("queued", [(), (9.0,)], ids=["empty", "queued"])
def test_run_until_in_the_past_leaves_the_clock_alone(queued):
    """``until`` earlier than ``now`` fires nothing and never moves the
    clock backwards, whether or not a later event is still queued."""
    eng = Engine()
    seen = []
    for t in (5.0,) + queued:
        eng.schedule(t, seen.append, t)
    eng.run(until=6.0)
    assert (seen, eng.now) == ([5.0], 6.0)
    eng.run(until=2.0)
    assert (seen, eng.now) == ([5.0], 6.0)
    eng.schedule(0, seen.append, "ready")  # a ring entry stamped 6.0
    eng.run(until=2.0)
    assert (seen, eng.now) == ([5.0], 6.0)
    eng.run()
    assert seen == [5.0, "ready"] + list(queued)
    assert eng.now == (queued[-1] if queued else 6.0)


def test_step_returns_false_when_idle():
    assert Engine().step() is False


def test_callbacks_may_schedule_more_work():
    eng = Engine()
    seen = []

    def first():
        seen.append("first")
        eng.schedule(1.0, lambda: seen.append("second"))

    eng.schedule(1.0, first)
    eng.run()
    assert seen == ["first", "second"]
    assert eng.now == 2.0


def test_run_is_not_reentrant():
    eng = Engine()
    failures = []

    def reenter():
        try:
            eng.run()
        except SimError as exc:
            failures.append(exc)

    eng.schedule(0, reenter)
    eng.run()
    assert len(failures) == 1


def test_determinism_two_identical_runs():
    def build():
        eng = Engine()
        seen = []
        for i in range(20):
            eng.schedule((i * 7) % 5, seen.append, i)
        eng.run()
        return seen

    assert build() == build()


def test_schedule_returns_a_cancellable_handle():
    eng = Engine()
    seen = []
    entry = eng.schedule(1.0, seen.append, "dead")
    eng.schedule(2.0, seen.append, "alive")
    eng.cancel(entry)
    eng.run()
    assert seen == ["alive"]
    assert eng.now == 2.0


def test_cancelled_entry_still_advances_the_clock():
    """Tombstones pop at their scheduled time: a run that ends on a
    cancelled entry leaves the clock where the live callback would
    have -- cancellation never perturbs virtual time."""
    eng = Engine()
    entry = eng.schedule(5.0, lambda: None)
    eng.cancel(entry)
    eng.run()
    assert eng.now == 5.0


def test_cancelled_entry_is_skipped_by_step():
    eng = Engine()
    seen = []
    entry = eng.schedule(1.0, seen.append, "dead")
    eng.cancel(entry)
    assert eng.step() is True   # the tombstone pop is still a step
    assert eng.now == 1.0
    assert seen == []


def test_cancellation_preserves_event_order():
    def build(cancel):
        eng = Engine()
        seen = []
        entries = [eng.schedule(float(i % 3), seen.append, i)
                   for i in range(12)]
        if cancel:
            for entry in entries[::4]:
                eng.cancel(entry)
        eng.run()
        return seen, eng.now

    full, full_now = build(cancel=False)
    partial, partial_now = build(cancel=True)
    assert partial_now == full_now
    assert partial == [i for i in full if i % 4 != 0]
