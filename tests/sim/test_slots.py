"""The sim hot-path classes stay ``__dict__``-free.

Waitables and processes are allocated on the engine's per-event hot
path -- thousands per heavy workload -- so they carry ``__slots__``.
These tests pin that: an accidental attribute (a debug field, a
forgotten slot in a subclass) would silently re-grow a ``__dict__`` on
every instance and tax every benchmark in the repository.
"""

import pytest

from repro.obs.span import Instant, Span
from repro.sim import Engine
from repro.sim.events import AllOf, Event, Timeout, Waitable
from repro.sim.process import Process

SLOTTED = [Waitable, Timeout, Event, AllOf, Process, Span, Instant]


@pytest.mark.parametrize("cls", SLOTTED, ids=lambda c: c.__name__)
def test_class_declares_slots(cls):
    assert "__slots__" in cls.__dict__, cls


@pytest.mark.parametrize("cls", SLOTTED, ids=lambda c: c.__name__)
def test_no_dict_anywhere_in_the_mro(cls):
    # A single slot-less base resurrects __dict__ for every subclass.
    for base in cls.__mro__[:-1]:  # object itself is fine
        assert "__dict__" not in base.__dict__, (cls, base)


def test_instances_reject_stray_attributes():
    engine = Engine()
    timeout = engine.timeout(1.0)
    event = engine.event()
    proc = engine.process(iter(()), name="noop")
    for obj in (timeout, event, AllOf(engine, [event]), proc):
        assert not hasattr(obj, "__dict__"), type(obj)
        with pytest.raises(AttributeError):
            obj.stray_attribute = 1


def test_slotted_processes_still_run():
    engine = Engine()

    def prog():
        yield engine.timeout(0.5)
        return "ok"

    proc = engine.process(prog())
    engine.run()
    assert proc.value == "ok" and engine.now == 0.5
