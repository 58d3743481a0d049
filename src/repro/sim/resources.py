"""Synchronization primitives for simulation processes.

Only the two primitives the substrate actually needs are provided: a
FIFO mutual-exclusion resource (disk arms, CPUs) and an unbounded
mailbox (per-site network message queues).
"""

from __future__ import annotations

from collections import deque

from .errors import SimError
from .events import Waitable

__all__ = ["FifoResource", "Mailbox"]


class FifoResource:
    """A resource with ``capacity`` slots, granted strictly in FIFO order.

    Usage from a process::

        yield disk.acquire()
        try:
            yield eng.timeout(io_time)
        finally:
            disk.release()
    """

    def __init__(self, engine, capacity=1):
        if capacity < 1:
            raise SimError("capacity must be >= 1")
        self._engine = engine
        self._capacity = capacity
        self._in_use = 0
        self._waiters = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def acquire(self):
        """Return an event that fires when a slot is granted."""
        ev = self._engine.event()
        if self._in_use < self._capacity and not self._waiters:
            self._in_use += 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def release(self):
        """Return a slot; the next queued waiter (if any) gets it."""
        if self._in_use <= 0:
            raise SimError("release without acquire")
        if self._waiters:
            # Hand the slot directly to the next waiter: in_use is unchanged.
            self._waiters.popleft().succeed()
        else:
            self._in_use -= 1

    def use(self, duration):
        """Generator helper: hold one slot for ``duration`` seconds."""
        yield self.acquire()
        try:
            yield self._engine.timeout(duration)
        finally:
            self.release()


class Mailbox:
    """Unbounded FIFO channel between processes.

    ``put`` never blocks; ``get`` returns a waitable producing the next
    item.  Items are delivered in insertion order, one per waiting
    getter, matching a kernel's per-site message queue.
    """

    def __init__(self, engine):
        self._engine = engine
        self._items = deque()
        self._getters = deque()
        self._closed = False

    def __len__(self):
        return len(self._items)

    def put(self, item):
        """Deliver an item (never blocks; lost if closed)."""
        if self._closed:
            return  # messages to a crashed site vanish silently
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Waitable:
        """A waitable producing the next item (FIFO)."""
        ev = self._engine.event()
        if self._closed:
            ev.fail(SimError("mailbox closed"))
        elif self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def close(self):
        """Drop queued items and fail pending getters (site crash)."""
        self._closed = True
        self._items.clear()
        getters, self._getters = self._getters, deque()
        for ev in getters:
            ev.fail(SimError("mailbox closed"))

    def reopen(self):
        """Reopen after a reboot: the queue starts empty."""
        self._closed = False
