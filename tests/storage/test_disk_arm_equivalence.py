"""Differential proof that the one-event disk arm is the FIFO queue.

``StockDisk`` below is the disk as it was while the arm was a
``FifoResource``: every request acquires the arm (one zero-delay engine
entry), holds it for a ``timeout(disk_io_time)`` (a second entry) and
releases it to the next waiter.  :class:`repro.storage.Disk` sits on a
:class:`repro.sim.FifoServer`, which schedules one entry per request --
its completion -- at the moment the stock arm posted the grant.
Hypothesis-generated programs of readers and writers -- think times,
same-instant arrivals, idle gaps, a client's next request at the very
instant its last one completed -- run against both; everything a caller
or an observer can see must match exactly: completion instants
(``float.hex``), completion order, the bytes read and left on the disk,
the per-category counters, and the ``disk.qdepth`` / ``disk.io`` /
``disk.queue`` observations, ``disk.queue`` announcements and span
attributes.

Two things are *not* compared.  The engine's sequence counter: one
entry per I/O instead of two is the point of the change.  And one tie:
another client's timer that fires at the exact float instant a
completion is due.  The completion entry takes the sequence number the
grant hop used to take; the stock completion took the next one after
the hop had fired, so a timer set inside that hop (same instant, a few
ring entries wide) for exactly ``disk_io_time`` ahead now fires after
the completion instead of before it (``test_timer_on_a_completion_
instant_*`` pins the rule; docs/ENGINE_PERF.md records it as an ordering
assumption).  Programs with a timer on a completion instant are
discarded.
"""

from collections import deque
from types import SimpleNamespace

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.config import CostModel
from repro.sim import Engine, SimError, Stats
from repro.storage import Disk, IOCategory


class StockFifoResource:
    """The event-per-grant FIFO resource the arm used to be."""

    def __init__(self, engine):
        self._engine = engine
        self.in_use = 0
        self._waiters = deque()

    @property
    def queue_length(self):
        return len(self._waiters)

    def acquire(self):
        ev = self._engine.event()
        if self.in_use < 1 and not self._waiters:
            self.in_use += 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def release(self):
        if self.in_use <= 0:
            raise SimError("release without acquire")
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self.in_use -= 1

    def use(self, duration):
        yield self.acquire()
        try:
            yield self._engine.timeout(duration)
        finally:
            self.release()


class StockDisk:
    """The reference: two engine entries and a queue object per I/O."""

    def __init__(self, engine, cost, name="disk", site=None):
        self._engine = engine
        self._cost = cost
        self.name = name
        self.site = site
        self.stats = Stats()
        self._arm = StockFifoResource(engine)
        self._blocks = {}

    def read_block(self, block_no, category=IOCategory.DATA_READ):
        span = self._io_begin("disk.read", block_no, category)
        yield from self._arm.use(self._cost.disk_io_time)
        self._io_done(span)
        self.stats.incr(category)
        self.stats.incr("io.total")
        return self._blocks.get(block_no, bytes(self._cost.page_size))

    def write_block(self, block_no, data, category=IOCategory.DATA_WRITE):
        span = self._io_begin("disk.write", block_no, category)
        yield from self._arm.use(self._cost.disk_io_time)
        self._io_done(span)
        self._blocks[block_no] = bytes(data)
        self.stats.incr(category)
        self.stats.incr("io.total")

    def peek(self, block_no):
        return self._blocks.get(block_no, bytes(self._cost.page_size))

    def _io_begin(self, name, block_no, category):
        obs = self._engine.obs
        depth = float(self._arm.in_use + self._arm.queue_length + 1)
        obs.observe(self.site, "disk.qdepth." + category, depth)
        obs.event("disk.queue", self.site, depth, category)
        return obs.span(name, self.site, self.name, block_no, category)

    def _io_done(self, span):
        obs = self._engine.obs
        total = self._engine.now - span.start
        queued = max(total - self._cost.disk_io_time, 0.0)
        obs.end(span, None, queued)
        obs.observe(self.site, "disk.io", total)
        obs.observe(self.site, "disk.queue", queued)
        obs.event("disk.queue", self.site,
                  float(self._arm.in_use + self._arm.queue_length), None)


class Probe:
    """Stands in for ``Observability`` (and its span recorder): writes
    down, in order and with the instant as ``float.hex``, everything the
    disk tells its observers."""

    def __init__(self, engine):
        self._engine = engine
        self.rows = []
        self.spans = self

    def _row(self, *fields):
        self.rows.append((self._engine.now.hex(),) + fields)

    def inherit(self, proc):
        pass

    def observe(self, site, name, value, mix=None):
        self._row("observe", site, name, float(value).hex())

    def event(self, kind, site_id, depth, category):
        self._row("event", kind, site_id, depth.hex(), category)

    def span(self, name, site_id, *values):
        self._row("span", name, site_id, values)
        return SimpleNamespace(start=self._engine.now, name=name)

    def end(self, span, status, *values):
        self._row("end", span.name, span.start.hex(), status,
                  tuple(float(v).hex() for v in values))


IO = CostModel().disk_io_time

# Think times that make arrivals collide with each other (same-instant
# requests), land mid-service, and leave the arm idle for a while.
_THINK = st.sampled_from((0.0, 0.0, 0.0, 0.001, 0.0025, IO / 2, 0.3, 1.7))
_CATEGORIES = {
    "read": (IOCategory.DATA_READ, IOCategory.INODE_READ, IOCategory.LOG_READ),
    "write": (IOCategory.DATA_WRITE, IOCategory.INODE_WRITE,
              IOCategory.LOG_WRITE, IOCategory.LOG_INODE_WRITE),
}
_OP = st.sampled_from(("read", "write")).flatmap(
    lambda kind: st.tuples(
        _THINK, st.just(kind), st.integers(0, 1), st.integers(0, 5),
        st.sampled_from(_CATEGORIES[kind])))
_PROGRAMS = st.lists(st.lists(_OP, min_size=1, max_size=6),
                     min_size=1, max_size=6)


def _run(disk_cls, programs):
    engine = Engine()
    engine.obs = probe = Probe(engine)
    # Two disks: chains that start at one instant complete at the same
    # instants on both for ever after, so the order of same-instant
    # completions *across* disks is part of what must not move.
    disks = [disk_cls(engine, CostModel(), name="d%d" % i, site=i)
             for i in range(2)]
    completions = []
    arrivals = []

    def client(cid, ops):
        for n, (think, kind, which, block, category) in enumerate(ops):
            disk = disks[which]
            if think:
                yield engine.timeout(think)
                arrivals.append((engine.now.hex(), cid))
            if kind == "read":
                got = yield from disk.read_block(block, category)
            else:
                got = yield from disk.write_block(
                    block, b"%d.%d" % (cid, n), category)
            completions.append((engine.now.hex(), cid, n, got))

    procs = [engine.process(client(cid, ops))
             for cid, ops in enumerate(programs)]
    engine.run()
    assert all(p.state == "done" for p in procs)
    return {
        "timer_ties": [
            (when, cid) for when, cid in arrivals
            if any(done == when and other != cid
                   for done, other, _n, _got in completions)],
        "completions": completions,
        "end": engine.now.hex(),
        "blocks": [{b: disk.peek(b) for b in range(6)} for disk in disks],
        "counters": [dict(disk.stats.counters) for disk in disks],
        "observed": probe.rows,
    }


@settings(max_examples=150, deadline=None)
@given(_PROGRAMS)
def test_one_event_arm_matches_the_stock_fifo_disk(programs):
    stock = _run(StockDisk, programs)
    assume(not stock["timer_ties"])
    fast = _run(Disk, programs)
    for key in stock:
        assert fast[key] == stock[key], key


def test_completion_instants_are_previous_completion_plus_io_time():
    """The float that matters: a queued request completes at the
    previous completion + io_time, accumulated one addition at a time,
    never at arrival + n * io_time."""
    programs = [[(0.0025, "write", 0, i, IOCategory.DATA_WRITE)]
                for i in range(6)]
    instants = [float.fromhex(row[0])
                for row in _run(Disk, programs)["completions"]]
    expected, t = [], 0.0025
    for _ in programs:
        t = t + IO
        expected.append(t)
    assert instants == expected
    assert instants[-1] != 0.0025 + 6 * IO  # the two floats do differ


def _timer_on_completion(disk_cls, timer_first):
    """One writer issues at t=0; another client's timer is set for the
    instant that write completes, before or after the write is issued."""
    engine = Engine()
    engine.obs = probe = Probe(engine)
    disk = disk_cls(engine, CostModel(), site=7)
    done = []

    def writer():
        yield from disk.write_block(0, b"w")
        done.append(("writer", engine.now))
        yield from disk.write_block(1, b"w")
        done.append(("writer", engine.now))

    def sleeper():
        yield engine.timeout(IO)
        yield from disk.write_block(2, b"s")
        done.append(("sleeper", engine.now))

    for body in (sleeper, writer) if timer_first else (writer, sleeper):
        engine.process(body())
    engine.run()
    depth = [float.fromhex(row[4]) for row in probe.rows
             if row[1] == "observe" and row[3].startswith("disk.qdepth")]
    return done, depth


def test_timer_on_a_completion_instant_set_before_the_request():
    """The timer's entry is older than the completion's: the sleeper
    arrives first, finds the write outstanding and is served before the
    writer's second request.  Stock and one-event arm agree."""
    done, depth = _timer_on_completion(Disk, timer_first=True)
    assert (done, depth) == _timer_on_completion(StockDisk, timer_first=True)
    assert [who for who, _t in done] == ["writer", "sleeper", "writer"]
    assert depth == [1.0, 2.0, 2.0]


def test_timer_on_a_completion_instant_set_after_the_request():
    """The completion's entry is the older one, so the write completes
    and the writer's second request is queued before the sleeper
    arrives.  The stock arm took the completion's sequence number one
    zero-delay hop after the request, which let a timer set inside that
    hop through first: the recorded ordering assumption."""
    done, depth = _timer_on_completion(Disk, timer_first=False)
    assert [who for who, _t in done] == ["writer", "writer", "sleeper"]
    assert depth == [1.0, 1.0, 2.0]
    stock_done, _depth = _timer_on_completion(StockDisk, timer_first=False)
    assert [who for who, _t in stock_done] == ["writer", "sleeper", "writer"]
    assert [t for _who, t in done] == [t for _who, t in stock_done]


def test_one_engine_entry_per_io():
    def entries(disk_cls):
        engine = Engine()
        engine.obs = Probe(engine)
        disk = disk_cls(engine, CostModel())
        before = next(engine._seq)

        def prog():
            for block in range(10):
                yield from disk.write_block(block, b"x")

        engine.process(prog())
        engine.run()
        return next(engine._seq) - before - 1

    assert entries(StockDisk) - entries(Disk) == 10
    assert entries(Disk) == 1 + 10  # the kickoff, then one per I/O


def test_same_instant_completions_across_disks_keep_their_order():
    """The case that rules out booking a completion when the request is
    *issued* (it moved ``oltp_open``'s fingerprint on one seed in ten:
    two participants of one commit run in lockstep).  Client 2's
    request is issued at t=0 and queues on d1; client 0's second
    request is issued at t=io on d0.  Both complete at 2*io, and the
    order is the order in which the arms turned to them at t=io -- d0's
    completion entry is the older one -- not the order of asking."""
    write = IOCategory.DATA_WRITE
    programs = [
        [(0.0, "write", 0, 0, write), (0.0, "write", 0, 1, write)],
        [(0.0, "write", 1, 2, write)],
        [(0.0, "write", 1, 3, write)],   # queued behind client 1
    ]
    stock = _run(StockDisk, programs)
    assert not stock["timer_ties"]
    assert [(cid, n) for _t, cid, n, _got in stock["completions"]] == [
        (0, 0), (1, 0), (0, 1), (2, 0)]
    assert stock["completions"][2][0] == stock["completions"][3][0]
    fast = _run(Disk, programs)
    for key in stock:
        assert fast[key] == stock[key], key
