"""Deterministic discrete-event simulation engine.

The engine owns a virtual clock and two scheduling structures: an event
heap for delayed callbacks and a *ready ring* -- a FIFO deque -- for
zero-delay callbacks (process kickoffs, event triggers, joiner wakes,
interrupt delivery), which dominate real workloads and need no heap
discipline.  Everything that happens in the simulated system -- a disk
transfer completing, a network message arriving, a process resuming
after a timeout -- is a callback scheduled at a point in virtual time.
Ties are broken by a monotonically increasing sequence number shared by
both structures, so a given program produces the identical event order
on every run, and the ring is *provably* order-equivalent to routing
everything through the heap: ring entries are appended with the current
clock value in sequence order, so the ring is always sorted by
``(time, seq)`` and the run loop just takes the smaller of the two
heads (tests/sim/test_fastpath_equivalence.py checks this against a
stock heap-only engine over randomized programs).

Simulated concurrency is expressed with *processes*: plain Python
generators that ``yield`` waitables (:class:`~repro.sim.events.Timeout`,
:class:`~repro.sim.events.Event`, another process, ...).  See
:mod:`repro.sim.process`.

Nothing is recycled (docs/ENGINE_PERF.md, "Free-lists: measured and
deleted"): every scheduled callback is a fresh four-field entry
``[time, seq, fn, args]`` and every :meth:`timeout` / :meth:`event` a
fresh object, so a handle a caller keeps -- an entry, a ``Timeout``, an
``Event`` -- refers to that one wait for ever.  An entry's ``fn`` is
cleared as it fires, which makes a late :meth:`cancel` a no-op.

Cancelled entries are tombstones: ``cancel`` nulls the callback and the
entry is skipped when popped.  When tombstones pile up past half the
heap, the heap is *compacted* -- live entries are re-heapified and dead
ones dropped in one O(n) sweep instead of popping them one by one.  The
latest-scheduled tombstone is kept so a run that would have ended on a
cancelled entry still leaves the clock exactly where the stock engine
would have.
"""

from __future__ import annotations

import heapq
import itertools

from collections import deque
from math import inf

from .announcer import NULL_ANNOUNCER
from .errors import SimError
from .events import Event, Timeout
from .process import Process

__all__ = ["Engine"]

#: Compaction is only worth an O(n) sweep once the heap is substantial;
#: below this size dead entries just pop.
_COMPACT_MIN = 64


class Engine:
    """The discrete-event scheduler and virtual clock.

    Typical use::

        eng = Engine()

        def prog():
            yield eng.timeout(1.5)
            return "done"

        proc = eng.process(prog())
        eng.run()
        assert eng.now == 1.5 and proc.value == "done"
    """

    def __init__(self):
        self._now = 0.0
        self._heap = []
        self._ready = deque()  # zero-delay entries, sorted by construction
        self._seq = itertools.count()
        self._seq_next = self._seq.__next__
        self._current = None  # process being resumed right now, if any
        self._running = False
        self._dead = 0        # tombstoned entries not yet popped/compacted
        # The announcer protocol code calls its hooks on: the null one
        # until repro.obs.Observability installs itself.  The hooks are
        # pure observers, so attaching one never changes event order or
        # virtual time.
        self.obs = NULL_ANNOUNCER

    # ------------------------------------------------------------------
    # clock and scheduling
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time, in seconds."""
        return self._now

    @property
    def current_process(self):
        """The :class:`Process` whose callback is executing, else None."""
        return self._current

    def schedule(self, delay, fn, *args):
        """Run ``fn(*args)`` after ``delay`` seconds of virtual time.

        Returns an opaque entry handle accepted by :meth:`cancel`; a
        cancel after the entry fired is harmless.
        """
        return self._schedule(delay, fn, args)

    def _schedule(self, delay, fn, args):
        """:meth:`schedule` for callers that already hold the args
        tuple (Timeout, the RPC deadline)."""
        if delay < 0:
            raise SimError("cannot schedule into the past (delay=%r)" % delay)
        if delay == 0:
            entry = [self._now, self._seq_next(), fn, args]
            self._ready.append(entry)
        else:
            entry = [self._now + delay, self._seq_next(), fn, args]
            heapq.heappush(self._heap, entry)
        return entry

    def schedule_many(self, items):
        """Bulk-schedule an iterable of ``(delay, fn, args)`` triples.

        Semantically identical to ``[self.schedule(d, fn, *args) for
        (d, fn, args) in items]`` -- sequence numbers are assigned in
        iteration order and every ``(time, seq)`` pair is unique, so
        the fired order is the same no matter how the entries reached
        the heap -- but the delayed entries are appended and heapified
        *once*: O(H + N) for an N-entry burst into an H-entry heap,
        instead of N pushes at O(log H) each.  This is the arrival
        path for thousand-client workload bursts
        (:class:`repro.workloads.ScalingDriver`).

        Returns the list of entry handles, each accepted by
        :meth:`cancel`.
        """
        now = self._now
        seq_next = self._seq_next
        ready_append = self._ready.append
        heap = self._heap
        handles = []
        append_handle = handles.append
        heap_grew = False
        try:
            for delay, fn, args in items:
                if delay < 0:
                    raise SimError(
                        "cannot schedule into the past (delay=%r)" % (delay,)
                    )
                if delay == 0:
                    entry = [now, seq_next(), fn, args]
                    ready_append(entry)
                else:
                    entry = [now + delay, seq_next(), fn, args]
                    heap.append(entry)
                    heap_grew = True
                append_handle(entry)
        finally:
            # Restore the invariant even if the iterable raised midway:
            # entries already appended must not leave the heap unordered.
            if heap_grew:
                heapq.heapify(heap)
        return handles

    def _post(self, fn, args):
        """Internal zero-delay scheduling; no handle is returned."""
        self._ready.append([self._now, self._seq_next(), fn, args])

    def cancel(self, entry):
        """Tombstone a scheduled callback.

        The dead entry is skipped when its turn comes -- virtual time
        and the firing order of live callbacks are unchanged by
        cancellation.  When tombstones outnumber live heap entries the
        heap is compacted in one sweep (keeping the latest tombstone so
        a run that ends on cancelled work still parks the clock where
        the uncompacted engine would).
        """
        if entry[2] is None:
            return
        entry[2] = None
        entry[3] = None
        dead = self._dead = self._dead + 1
        heap = self._heap
        if dead * 2 >= len(heap) and len(heap) >= _COMPACT_MIN:
            self._compact()

    def _compact(self):
        """Drop dead heap entries in one sweep (amortized O(1)/cancel).

        The latest tombstone (by event order) survives so the clock
        still advances to it if the run would have ended there.  The
        heap list is compacted *in place*: the run loop holds it in a
        local, so rebinding ``self._heap`` would silently fork the
        scheduler's state.
        """
        heap = self._heap
        live = []
        dead_max = None
        for entry in heap:
            if entry[2] is not None:
                live.append(entry)
            elif dead_max is None or entry > dead_max:
                dead_max = entry
        if dead_max is not None:
            live.append(dead_max)
        heap[:] = live
        heapq.heapify(heap)
        self._dead = 0 if dead_max is None else 1

    def step(self) -> bool:
        """Execute the next scheduled callback.  Returns False if idle."""
        ready = self._ready
        heap = self._heap
        if ready:
            if heap and heap[0] < ready[0]:
                entry = heapq.heappop(heap)
            else:
                entry = ready.popleft()
        elif heap:
            entry = heapq.heappop(heap)
        else:
            return False
        self._now = entry[0]
        fn = entry[2]
        if fn is not None:
            entry[2] = None  # fired: a late cancel() finds nothing to do
            fn(*entry[3])
        elif self._dead:
            self._dead -= 1
        return True

    def run(self, until=None):
        """Run callbacks until both queues drain or the clock passes
        ``until``.

        When ``until`` is given the clock is left exactly at ``until``
        (events scheduled later stay queued), mirroring the behaviour of
        mainstream DES frameworks.  An ``until`` earlier than the clock
        fires nothing and leaves the clock alone: virtual time never
        runs backwards.
        """
        if self._running:
            raise SimError("Engine.run() is not reentrant")
        limit = inf if until is None else until
        if limit < self._now:
            return
        self._running = True
        # The run loop is the simulator's wall-clock hot path: heap ops
        # and the entry fields are bound to locals so each event pays no
        # repeated attribute lookups.
        heap = self._heap
        ready = self._ready
        pop = heapq.heappop
        popleft = ready.popleft
        try:
            while True:
                if ready:
                    if heap and heap[0] < ready[0]:
                        entry = pop(heap)
                    else:
                        entry = popleft()
                elif heap:
                    entry = pop(heap)
                else:
                    break
                time = entry[0]
                if time > limit:
                    # Only a heap entry can lie past the limit (ring
                    # entries carry the clock value, and the clock is
                    # <= limit), so it goes back where it came from.
                    heapq.heappush(heap, entry)
                    break
                self._now = time
                fn = entry[2]
                if fn is not None:
                    entry[2] = None  # see step()
                    fn(*entry[3])
                elif self._dead:
                    self._dead -= 1
            if until is not None:
                self._now = until
        finally:
            self._running = False

    # ------------------------------------------------------------------
    # factory helpers (defined here to keep user code terse)
    # ------------------------------------------------------------------

    def timeout(self, delay, value=None):
        """A waitable that fires after ``delay`` seconds."""
        return Timeout(self, delay, value)

    def event(self):
        """A manually triggered one-shot event."""
        return Event(self)

    def process(self, generator, name=None):
        """Spawn a simulation process driving ``generator``."""
        proc = Process(self, generator, name=name)
        # Causal-context inheritance: a process spawned while a span is
        # open (a 2PC prepare worker, the async phase-two sender) starts
        # with that span as its ambient trace parent.
        self.obs.inherit(proc)
        return proc

    def charge(self, seconds):
        """Consume CPU for ``seconds``: advances time *and* books the cost
        against the issuing process's ``cpu_time`` accumulator.

        This is how the substrate distinguishes *service time* (CPU
        consumed, Figure 6 of the paper) from *latency* (elapsed time,
        which also includes disk and network waits expressed as plain
        timeouts).
        """
        proc = self._current
        if proc is not None:
            proc.cpu_time += seconds
        return self.timeout(seconds)
