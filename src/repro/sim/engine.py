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

Allocation discipline (docs/ENGINE_PERF.md)
-------------------------------------------

The engine recycles its hottest allocations through free-lists:

* **heap/ring entries** scheduled internally (``_post``,
  ``_schedule_pooled``) are returned to a free-list after they fire.
  Entries handed out by the public :meth:`schedule` are *never* pooled,
  so a caller-retained handle stays valid forever and a late
  :meth:`cancel` can never hit a recycled slot.  Internal holders
  (``Timeout``, the RPC reply waitable) cancel through
  :meth:`cancel_guarded`, which verifies the entry's sequence number
  before tombstoning -- a recycled entry carries a fresh seq, so a
  stale cancel is a no-op.
* **Timeout objects** created by :meth:`timeout` (and therefore
  :meth:`charge`) come from a pool refilled by the process machinery
  when the wait completes.
* **Event objects** are pooled only for owners that provably drop every
  reference once the event fires (the mailbox fast path); the public
  :meth:`event` never pools.

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

from .errors import SimError
from .events import Event, Timeout
from .process import Process

__all__ = ["Engine"]

#: Compaction is only worth an O(n) sweep once the heap is substantial;
#: below this size dead entries just pop.
_COMPACT_MIN = 64

#: Free-lists are bounded so a one-off storm cannot pin memory forever.
_POOL_MAX = 8192


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
        self._entry_pool = []    # recycled internal entries
        self._timeout_pool = []  # recycled Timeout waitables
        self._event_pool = []    # recycled mailbox Events
        # Optional observability context (repro.obs.Observability).
        # Instrumentation hooks throughout the stack read this attribute
        # and stay inert while it is None; the hooks are pure observers,
        # so attaching one never changes event order or virtual time.
        self.obs = None

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

        Returns an opaque entry handle accepted by :meth:`cancel`.
        Entries returned here are never recycled, so the handle stays
        valid (and a late cancel stays harmless) for the engine's
        lifetime.
        """
        if delay < 0:
            raise SimError("cannot schedule into the past (delay=%r)" % delay)
        if delay == 0:
            entry = [self._now, self._seq_next(), fn, args, False]
            self._ready.append(entry)
        else:
            entry = [self._now + delay, self._seq_next(), fn, args, False]
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
        :meth:`cancel`; like :meth:`schedule`, the handles are never
        recycled.
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
                    entry = [now, seq_next(), fn, args, False]
                    ready_append(entry)
                else:
                    entry = [now + delay, seq_next(), fn, args, False]
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
        """Internal zero-delay scheduling: no handle escapes, so the
        entry is recycled after it fires."""
        pool = self._entry_pool
        if pool:
            entry = pool.pop()
            entry[0] = self._now
            entry[1] = self._seq_next()
            entry[2] = fn
            entry[3] = args
        else:
            entry = [self._now, self._seq_next(), fn, args, True]
        self._ready.append(entry)

    def _schedule_pooled(self, delay, fn, args):
        """Internal scheduling for holders that cancel only through
        :meth:`cancel_guarded` (Timeout, the RPC deadline): the entry is
        recycled after it fires or is compacted away, and the returned
        entry's seq guards against stale cancels."""
        if delay < 0:
            raise SimError("cannot schedule into the past (delay=%r)" % delay)
        pool = self._entry_pool
        if pool:
            entry = pool.pop()
            entry[0] = self._now + delay
            entry[1] = self._seq_next()
            entry[2] = fn
            entry[3] = args
        else:
            entry = [self._now + delay, self._seq_next(), fn, args, True]
        if delay == 0:
            self._ready.append(entry)
        else:
            heapq.heappush(self._heap, entry)
        return entry

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

    def cancel_guarded(self, entry, seq):
        """Cancel ``entry`` only if it still carries ``seq``.

        Internal pooled entries are recycled with a fresh sequence
        number, so a holder that remembered ``(entry, seq)`` at schedule
        time can never tombstone a recycled slot by mistake.
        """
        if entry[1] == seq:
            self.cancel(entry)

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
        pool = self._entry_pool
        pool_room = _POOL_MAX - len(pool)
        for entry in heap:
            if entry[2] is not None:
                live.append(entry)
            elif dead_max is None or entry > dead_max:
                dead_max = entry
        if dead_max is not None:
            if pool_room > 0:
                for entry in heap:
                    if entry[2] is None and entry is not dead_max and entry[4]:
                        entry[4] = False  # recycled here, not again at pop
                        pool.append(entry)
                        pool_room -= 1
                        if pool_room == 0:
                            break
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
            fn(*entry[3])
            if entry[4]:
                entry[2] = None
                entry[3] = None
                if len(self._entry_pool) < _POOL_MAX:
                    self._entry_pool.append(entry)
        else:
            if self._dead:
                self._dead -= 1
            if entry[4] and len(self._entry_pool) < _POOL_MAX:
                self._entry_pool.append(entry)
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
        entry_pool = self._entry_pool
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
                    fn(*entry[3])
                    if entry[4]:
                        entry[2] = None
                        entry[3] = None
                        if len(entry_pool) < _POOL_MAX:
                            entry_pool.append(entry)
                else:
                    if self._dead:
                        self._dead -= 1
                    if entry[4] and len(entry_pool) < _POOL_MAX:
                        entry_pool.append(entry)
            if until is not None:
                self._now = until
        finally:
            self._running = False

    # ------------------------------------------------------------------
    # factory helpers (defined here to keep user code terse)
    # ------------------------------------------------------------------

    def timeout(self, delay, value=None):
        """A waitable that fires after ``delay`` seconds.

        Timeout objects are pooled: once the wait completes the process
        machinery hands the object back, so steady-state waiting (every
        ``charge``, every disk transfer) allocates nothing.
        """
        pool = self._timeout_pool
        if pool:
            t = pool.pop()
            t._delay = delay
            t._value = value
            return t
        return Timeout(self, delay, value)

    def _release_timeout(self, timeout):
        """Return a completed Timeout to the pool (see Process._resume)."""
        timeout._entry = None
        timeout._value = None
        pool = self._timeout_pool
        if len(pool) < _POOL_MAX:
            pool.append(timeout)

    def event(self):
        """A manually triggered one-shot event (never pooled: arbitrary
        callers may retain references indefinitely)."""
        return Event(self)

    def _pooled_event(self):
        """An Event for owners that drop every reference once it fires
        (the mailbox fast path): recycled by the process machinery."""
        pool = self._event_pool
        if pool:
            ev = pool.pop()
            ev._triggered = False
            ev._ok = None
            ev._value = None
            return ev
        ev = Event(self)
        ev._pooled = True
        return ev

    def _release_event(self, event):
        """Return a fired pooled Event (see Process._resume)."""
        event._value = None
        pool = self._event_pool
        if len(pool) < _POOL_MAX:
            pool.append(event)

    def process(self, generator, name=None):
        """Spawn a simulation process driving ``generator``."""
        proc = Process(self, generator, name=name)
        if self.obs is not None:
            # Causal-context inheritance: a process spawned while a span
            # is open (a 2PC prepare worker, the async phase-two sender)
            # starts with that span as its ambient trace parent.
            self.obs.spans.inherit(proc)
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
