"""Waitables: the values a simulation process may ``yield``.

Every waitable implements ``_subscribe(callback)`` where ``callback`` is
invoked exactly once as ``callback(ok, value)`` -- ``ok`` False meaning
the wait failed and ``value`` is then an exception to raise inside the
waiting process.  Callbacks always run via the engine's scheduler, never
synchronously, which keeps event ordering deterministic.

Process waits -- by far the hottest subscription path -- go through
``_subscribe_process(proc, epoch)`` instead: the waitable schedules
``proc._resume`` with the epoch threaded through the entry's args, so a
steady-state wait allocates no closure and burns no extra call frame.
The base-class default falls back to a closure over ``_subscribe``, so
the composite :class:`AllOf` and user-defined waitables keep working
unchanged.  Both paths consume exactly one engine sequence number per
waiter at the same points, so switching a waitable to the fast path
never perturbs event order (see tests/sim/test_fastpath_equivalence.py).
"""

from __future__ import annotations

from .errors import SimError

__all__ = ["Waitable", "Event", "Timeout", "AllOf"]


class Waitable:
    """Abstract base: something a process can wait for."""

    # Slot-based (empty here so subclasses stay __dict__-free): waitables
    # are allocated once per wait on the engine's hot path.
    __slots__ = ()

    def _subscribe(self, callback):
        raise NotImplementedError

    def _subscribe_process(self, proc, epoch):
        # Fallback for waitables without a dedicated fast path: identical
        # semantics to the historical per-yield closure.
        self._subscribe(lambda ok, value: proc._resume(epoch, ok, value))


class Timeout(Waitable):
    """Fires ``value`` after ``delay`` seconds of virtual time."""

    __slots__ = ("_engine", "_delay", "_value")

    def __init__(self, engine, delay, value=None):
        self._engine = engine
        self._delay = delay
        self._value = value

    def _subscribe(self, callback):
        self._engine.schedule(self._delay, callback, True, self._value)

    def _subscribe_process(self, proc, epoch):
        self._engine._schedule(
            self._delay, proc._resume, (epoch, True, self._value)
        )


class Event(Waitable):
    """A one-shot event that some other process triggers.

    ``succeed(value)`` wakes all waiters with ``value``; ``fail(exc)``
    raises ``exc`` inside them.  Waiting on an already-triggered event
    completes (asynchronously) with the stored outcome, so there is no
    lost-wakeup hazard.

    The waiter list holds two shapes: legacy ``callback(ok, value)``
    callables and ``(process, epoch)`` tuples from the process fast
    path.  A single list preserves subscription order across both kinds,
    which is what fixes the wake order.
    """

    __slots__ = ("_engine", "_callbacks", "_triggered", "_ok", "_value")

    def __init__(self, engine):
        self._engine = engine
        self._callbacks = []
        self._triggered = False
        self._ok = None
        self._value = None

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def ok(self):
        """True/False once triggered, None before."""
        return self._ok

    @property
    def value(self):
        """The success value or failure exception, once triggered."""
        return self._value

    def succeed(self, value=None):
        """Trigger the event: waiters resume with ``value``."""
        self._trigger(True, value)
        return self

    def fail(self, exc):
        """Trigger the event as a failure: waiters raise ``exc``."""
        if not isinstance(exc, BaseException):
            raise SimError("Event.fail() requires an exception instance")
        self._trigger(False, exc)
        return self

    def _trigger(self, ok, value):
        if self._triggered:
            raise SimError("event already triggered")
        self._triggered = True
        self._ok = ok
        self._value = value
        callbacks = self._callbacks
        if callbacks:
            post = self._engine._post
            for cb in callbacks:
                if cb.__class__ is tuple:
                    post(cb[0]._resume, (cb[1], ok, value))
                else:
                    post(cb, (ok, value))
            callbacks.clear()

    def _subscribe(self, callback):
        if self._triggered:
            self._engine._post(callback, (self._ok, self._value))
        else:
            self._callbacks.append(callback)

    def _subscribe_process(self, proc, epoch):
        if self._triggered:
            self._engine._post(proc._resume, (epoch, self._ok, self._value))
        else:
            self._callbacks.append((proc, epoch))


class AllOf(Waitable):
    """Completes when every child waitable has completed.

    Succeeds with the list of child values (in the order given).  Fails
    with the first failure observed; remaining children are left to
    complete unobserved.
    """

    __slots__ = ("_engine", "_waitables")

    def __init__(self, engine, waitables):
        self._engine = engine
        self._waitables = list(waitables)

    def _subscribe(self, callback):
        remaining = len(self._waitables)
        if remaining == 0:
            self._engine.schedule(0, callback, True, [])
            return
        results = [None] * remaining
        state = {"left": remaining, "failed": False}

        def child_cb(index, ok, value):
            if state["failed"]:
                return
            if not ok:
                state["failed"] = True
                callback(False, value)
                return
            results[index] = value
            state["left"] -= 1
            if state["left"] == 0:
                callback(True, results)

        for i, w in enumerate(self._waitables):
            w._subscribe(lambda ok, value, i=i: child_cb(i, ok, value))

