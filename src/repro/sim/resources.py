"""Synchronization primitives for simulation processes.

Only the primitives the substrate actually needs are provided: a FIFO
mutual-exclusion resource (the per-file commit mutex) and a FIFO server
with a fixed service time (the disk arm).  A site's message queue
belongs to the network (:mod:`repro.net.network`).
"""

from __future__ import annotations

from collections import deque

from .errors import SimError
from .events import Waitable

__all__ = ["FifoResource", "FifoServer"]


class FifoResource(Waitable):
    """A resource with ``capacity`` slots, granted strictly in FIFO order.

    Usage from a process::

        yield mutex.acquire()
        try:
            yield eng.timeout(hold_time)
        finally:
            mutex.release()

    The ``acquire()`` sits outside the ``try``, so the resource itself
    guarantees that a slot never goes to the dead: a process that stops
    waiting (killed, interrupted, any exception at the yield) is passed
    over when its turn comes, and if the slot was already on its way to
    it the slot goes straight back.  Only a process can wait for a slot
    (there is no ``_subscribe``): its wait epoch is how the resource
    tells that a waiter gave up.
    """

    def __init__(self, engine, capacity=1):
        if capacity < 1:
            raise SimError("capacity must be >= 1")
        self._engine = engine
        self._capacity = capacity
        self._in_use = 0
        self._waiters = deque()  # (process, epoch of its wait), FIFO

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Processes still waiting for a slot."""
        return sum(1 for proc, epoch in self._waiters if proc._epoch == epoch)

    def acquire(self):
        """The waitable for one slot (the resource itself): the process
        that yields it joins the queue and resumes holding a slot."""
        return self

    def _subscribe_process(self, proc, epoch):
        if self._in_use < self._capacity and not self._waiters:
            self._in_use += 1
            self._engine._post(self._grant, (proc, epoch))
        else:
            self._waiters.append((proc, epoch))

    def release(self):
        """Return a slot; the next process still waiting (if any) gets it."""
        if self._in_use <= 0:
            raise SimError("release without acquire")
        waiters = self._waiters
        while waiters:
            proc, epoch = waiters.popleft()
            if proc._epoch == epoch:
                # Hand the slot directly to the next waiter: in_use is unchanged.
                self._engine._post(self._grant, (proc, epoch))
                return
        self._in_use -= 1

    def _grant(self, proc, epoch):
        if proc._epoch == epoch:
            proc._resume(epoch, True, None)
        else:
            self.release()  # it stopped waiting with the grant in flight


class FifoServer(Waitable):
    """A single server with a FIFO queue and a fixed service time.

    A process that yields the server joins the queue and resumes when
    its request has been served.  Nothing else can be decided about a
    request, so it costs **one** engine entry, its completion, scheduled
    the moment the server turns to it: ``service_time`` after the
    previous completion, or after arrival if the server was idle.

    A request handed to the server is not recalled: if its process
    stops waiting (interrupt, kill) the request keeps its turn and its
    service time, and nobody is resumed -- until :meth:`drop_abandoned`.
    """

    def __init__(self, engine, service_time):
        self._engine = engine
        self._service_time = service_time
        self._queue = deque()  # (process, epoch of its wait); [0] in service
        self._entry = None     # the completion entry of the one in service

    @property
    def outstanding(self) -> int:
        """Requests in service or queued."""
        return len(self._queue)

    def _subscribe_process(self, proc, epoch):
        self._queue.append((proc, epoch))
        if len(self._queue) == 1:
            self._serve()

    def _serve(self):
        self._entry = self._engine._schedule(
            self._service_time, self._done, self._queue[0]
        )

    def _done(self, proc, epoch):
        self._queue.popleft()
        if self._queue:
            self._serve()
        proc._resume(epoch, True, None)  # a no-op if it stopped waiting

    def drop_abandoned(self):
        """Drop the requests of processes that no longer wait for them
        (a crash has just killed them); the next one still waited for,
        if any, is served from now."""
        queue = self._queue
        restart = bool(queue) and queue[0][0]._epoch != queue[0][1]
        live = [w for w in queue if w[0]._epoch == w[1]]
        queue.clear()
        queue.extend(live)
        if restart:
            self._engine.cancel(self._entry)
            if queue:
                self._serve()

