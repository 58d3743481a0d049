"""Differential proof that the engine's fast paths preserve event order.

``StockEngine`` below disables every fast path the engine carries -- the
zero-delay ready ring, the bulk heapify of ``schedule_many`` and
tombstone compaction -- leaving the historical heap-only scheduler.
Randomized programs (timer trees with cancellation, and full process
programs with spawn/join, events, interrupts, kills, FIFO servers and
armed-then-cancelled timers) run on both engines; the observable traces and final
clocks must match exactly, float for float -- under every way of turning
the crank: ``run()``, ``while step()``, and ``run(until=t)`` over
increasing cut points followed by ``run()``.

The handle-safety tests at the bottom pin what a caller may do with an
object the engine handed out: nothing is recycled, so a kept entry or
``Event`` refers to its own wait for ever and a late cancel is
harmless.
"""

import heapq
import random

import pytest

from repro.sim import Engine, SimError
from repro.sim.errors import Interrupt
from repro.sim.resources import FifoServer


class StockEngine(Engine):
    """The engine with every fast path disabled.

    Everything is routed through the heap (no ready ring) and cancelled
    entries are left to pop as tombstones (no compaction).  This is the
    reference scheduler the fast-path engine must be order-equivalent
    to.
    """

    def _schedule(self, delay, fn, args):
        if delay < 0:
            raise SimError("cannot schedule into the past (delay=%r)" % delay)
        entry = [self._now + delay, self._seq_next(), fn, args]
        heapq.heappush(self._heap, entry)
        return entry

    def _post(self, fn, args):
        heapq.heappush(self._heap, [self._now, self._seq_next(), fn, args])

    def cancel(self, entry):
        if entry[2] is None:
            return
        entry[2] = None
        entry[3] = None  # tombstone pops at its scheduled time

    def schedule_many(self, items):
        # The historical arrival path: one heap push per entry, no
        # bulk heapify, no ready ring for zero delays.
        return [self.schedule(delay, fn, *args) for delay, fn, args in items]


# ----------------------------------------------------------------------
# drivers: run(), step() and bounded run(until=...) must all agree
# ----------------------------------------------------------------------

def _drive_run(engine, trace, cuts):
    engine.run()


def _drive_step(engine, trace, cuts):
    while engine.step():
        pass


def _drive_until(engine, trace, cuts):
    """Bounded runs to each cut, then drain.  The marker after each cut
    pins which events a bounded run fired and where it left the clock."""
    for t in cuts:
        engine.run(until=t)
        trace.append(("cut", t, engine.now))
    engine.run()


_DRIVERS = {"run": _drive_run, "step": _drive_step, "until": _drive_until}


def _cut_points(rng, trace, end):
    """Increasing ``run(until=...)`` targets taken from a reference run:
    random instants, one exactly on an event time, the parked clock (a
    trailing tombstone's time when the run ended on one) and one beyond
    the last event."""
    cuts = {rng.uniform(0.0, end) for _ in range(3)}
    cuts.add(rng.choice(trace)[0])
    cuts.add(end)
    cuts.add(end + 1.0)
    return sorted(cuts)


def _assert_every_driver_matches_stock(rng, program):
    """``program(engine_cls, drive, cuts) -> (trace, now)`` must give the
    same answer on both engines under each driver, and the same events
    whichever driver ran them."""
    ref_trace, ref_end = program(StockEngine, _drive_run, ())
    cuts = _cut_points(rng, ref_trace, ref_end)
    fast = {}
    for name, drive in _DRIVERS.items():
        trace, end = fast[name] = program(Engine, drive, cuts)
        assert fast[name] == program(StockEngine, drive, cuts), name
        assert [row for row in trace if row[0] != "cut"] == ref_trace, name
        if name != "until":  # which parks at the last cut
            assert end == ref_end, name
    # The stock engine shares the run loop, so pin the bounded run's own
    # contract against the reference: each cut has fired exactly the
    # events due by then and parked the clock on the cut.
    fired = 0
    for row in fast["until"][0]:
        if row[0] == "cut":
            assert row[2] == row[1]
            assert fired == sum(1 for ref in ref_trace if ref[0] <= row[1])
        else:
            fired += 1


# ----------------------------------------------------------------------
# low level: randomized timer trees with cancellation
# ----------------------------------------------------------------------

_DELAYS = (0.0, 0.0, 0.0, 0.001, 0.001, 0.0025, 0.01, 0.3)


def _timer_tree_spec(rng, n_nodes):
    """A list of (node_id, delay, children, cancels): children spawn
    when the node fires, cancels name earlier node ids to tombstone."""
    spec = []
    ids = list(range(n_nodes))
    for nid in ids:
        delay = rng.choice(_DELAYS)
        children = []
        for _ in range(rng.randrange(3)):
            children.append((n_nodes + nid * 4 + len(children),
                             rng.choice(_DELAYS)))
        cancels = [rng.choice(ids) for _ in range(rng.randrange(2))]
        spec.append((nid, delay, children, cancels))
    return spec


def _run_timer_tree(engine_cls, spec, drive, cuts):
    engine = engine_cls()
    trace = []
    handles = {}

    def fire(nid, children, cancels):
        trace.append((engine.now, nid))
        for cid, d in children:
            handles[cid] = engine.schedule(d, fire, cid, (), ())
        for tid in cancels:
            h = handles.get(tid)
            if h is not None:
                engine.cancel(h)

    for nid, delay, children, cancels in spec:
        handles[nid] = engine.schedule(delay, fire, nid, children, cancels)
    drive(engine, trace, cuts)
    return trace, engine.now


@pytest.mark.parametrize("seed", range(12))
def test_timer_trees_fire_identically(seed):
    rng = random.Random(0xE5400 + seed)
    spec = _timer_tree_spec(rng, 120)
    _assert_every_driver_matches_stock(
        rng, lambda cls, drive, cuts: _run_timer_tree(cls, spec, drive, cuts))


def test_heavily_cancelled_tree_compacts_but_parks_identically():
    """Cancel almost everything: compaction kicks in on the fast engine
    (heap shrinks) yet the firing order and the parked clock match the
    tombstone-popping stock engine exactly.  The run ends on a cancelled
    entry, so the drivers' cut at the parked clock lands on the one
    trailing tombstone compaction keeps."""
    peaks = {}

    def program(engine_cls, drive, cuts):
        engine = engine_cls()
        trace = []

        def fire(i):
            trace.append((engine.now, i))

        handles = [engine.schedule(0.001 * i, fire, i) for i in range(3000)]
        for i, h in enumerate(handles):
            if i % 16:
                engine.cancel(h)
        peaks[engine_cls] = len(engine._heap)
        drive(engine, trace, cuts)
        return trace, engine.now

    _assert_every_driver_matches_stock(random.Random(0xDEAD), program)
    assert peaks[Engine] < peaks[StockEngine]  # compaction really ran


# ----------------------------------------------------------------------
# bulk arrival: schedule_many vs per-entry schedule
# ----------------------------------------------------------------------

def _burst_spec(rng, bursts=5):
    """(install_delay, delays, cancel_indices) per burst: each burst is
    bulk-installed mid-run against whatever heap the earlier bursts
    left behind, with a few of its handles cancelled immediately."""
    spec = []
    for _ in range(bursts):
        delays = [rng.choice(_DELAYS) for _ in range(rng.randrange(1, 60))]
        cancels = sorted({rng.randrange(len(delays))
                          for _ in range(rng.randrange(4))})
        spec.append((rng.choice(_DELAYS), delays, cancels))
    return spec


def _run_bursts(engine_cls, spec):
    engine = engine_cls()
    trace = []

    def fire(burst, i):
        trace.append((engine.now, burst, i))

    def install(burst, delays, cancels):
        handles = engine.schedule_many(
            (d, fire, (burst, i)) for i, d in enumerate(delays)
        )
        assert len(handles) == len(delays)
        for c in cancels:
            engine.cancel(handles[c])

    for burst, (when, delays, cancels) in enumerate(spec):
        engine.schedule(when, install, burst, delays, cancels)
    engine.run()
    return trace, engine.now


@pytest.mark.parametrize("seed", range(12))
def test_bulk_bursts_fire_identically_to_stock_pushes(seed):
    """A schedule_many burst against a live heap fires in exactly the
    order N individual heap pushes would have produced -- including
    zero-delay entries (ready ring vs heap) and immediate cancels."""
    spec = _burst_spec(random.Random(0xB0157 + seed))
    assert _run_bursts(Engine, spec) == _run_bursts(StockEngine, spec)


def test_schedule_many_rejects_negative_delay_but_keeps_prior_entries():
    """A bad triple mid-burst raises, and the entries accepted before
    it are properly heapified and still fire in order."""
    engine = Engine()
    fired = []
    with pytest.raises(SimError):
        engine.schedule_many([
            (0.2, fired.append, (2,)),
            (0.1, fired.append, (1,)),
            (-0.5, fired.append, (99,)),
            (0.3, fired.append, (3,)),
        ])
    engine.run()
    assert fired == [1, 2]


# ----------------------------------------------------------------------
# process level: randomized programs over the full sim vocabulary
# ----------------------------------------------------------------------

_OPS = ("sleep", "sleep", "charge", "serve", "spawn", "join", "wait",
        "trigger", "interrupt", "kill", "arm", "cancel")


def _gen_ops(rng, idgen, depth):
    ops = []
    for _ in range(rng.randrange(2, 7)):
        kind = rng.choice(_OPS)
        if kind in ("sleep", "charge"):
            ops.append((kind, rng.choice(_DELAYS)))
        elif kind == "serve":
            ops.append((kind, rng.randrange(2)))
        elif kind == "spawn" and depth < 3:
            wid = next(idgen)
            ops.append(("spawn", wid, _gen_ops(rng, idgen, depth + 1)))
        elif kind in ("join", "interrupt", "kill"):
            ops.append((kind, rng.randrange(12)))
        elif kind in ("wait", "trigger"):
            ops.append((kind, rng.randrange(6)))
        elif kind in ("arm", "cancel"):
            ops.append((kind, rng.randrange(10), rng.choice(_DELAYS)))
    return ops


def _run_program(engine_cls, scripts, drive, cuts):
    engine = engine_cls()
    trace = []
    procs = {}
    events = {}
    timers = {}
    servers = [FifoServer(engine, 0.0025), FifoServer(engine, 0.01)]

    def tick(tid):
        trace.append((engine.now, "tick", tid))

    def worker(wid, ops):
        for i, op in enumerate(ops):
            kind = op[0]
            try:
                if kind == "sleep":
                    got = yield engine.timeout(op[1], ("t", wid, i))
                    trace.append((engine.now, wid, i, "woke", got))
                elif kind == "serve":
                    # Queue on a fixed-service-time server; interrupts
                    # and kills land on queued and in-service requests.
                    yield servers[op[1]]
                    trace.append((engine.now, wid, i, "served", op[1]))
                elif kind == "charge":
                    yield engine.charge(op[1])
                    trace.append((engine.now, wid, i, "charged"))
                elif kind == "spawn":
                    procs[op[1]] = engine.process(
                        worker(op[1], op[2]), name="w%d" % op[1]
                    )
                    trace.append((engine.now, wid, i, "spawned", op[1]))
                elif kind == "join":
                    target = procs.get(op[1])
                    if target is not None:
                        value = yield target
                        trace.append((engine.now, wid, i, "joined", value))
                elif kind == "wait":
                    ev = events.setdefault(op[1], engine.event())
                    value = yield ev
                    trace.append((engine.now, wid, i, "waited", value))
                elif kind == "trigger":
                    ev = events.setdefault(op[1], engine.event())
                    if not ev.triggered:
                        ev.succeed((wid, i))
                    trace.append((engine.now, wid, i, "triggered"))
                elif kind == "interrupt":
                    target = procs.get(op[1])
                    if target is not None and target.alive:
                        target.interrupt((wid, i))
                    trace.append((engine.now, wid, i, "sent-interrupt"))
                elif kind == "kill":
                    target = procs.get(op[1])
                    if target is not None and target is not procs.get(wid):
                        target.kill()
                    trace.append((engine.now, wid, i, "sent-kill"))
                elif kind == "arm":
                    timers[op[1]] = engine.schedule(op[2], tick, op[1])
                elif kind == "cancel":
                    h = timers.get(op[1])
                    if h is not None:
                        engine.cancel(h)
            except Interrupt as exc:
                trace.append((engine.now, wid, i, "interrupted", exc.cause))
            except SimError:
                trace.append((engine.now, wid, i, "wait-failed"))
        return ("done", wid)

    for wid, ops in scripts:
        procs[wid] = engine.process(worker(wid, ops), name="w%d" % wid)
    drive(engine, trace, cuts)
    return trace, engine.now


@pytest.mark.parametrize("seed", range(20))
def test_random_process_programs_trace_identically(seed):
    rng = random.Random(0xFA57 + seed)
    idgen = iter(range(100, 10_000))
    scripts = [(wid, _gen_ops(rng, idgen, 0)) for wid in range(12)]
    _assert_every_driver_matches_stock(
        rng, lambda cls, drive, cuts: _run_program(cls, scripts, drive, cuts))


# ----------------------------------------------------------------------
# handle safety: nothing the engine hands out is ever reused
# ----------------------------------------------------------------------

def test_interrupted_wait_is_never_recycled():
    """The superseded 5 s timeout still fires at t=5 while the sleeper
    is in a later wait; it must not resume it."""
    engine = Engine()
    out = []

    def sleeper():
        try:
            yield engine.timeout(5.0, "slept")
        except Interrupt:
            out.append(("interrupted", engine.now))
        for delay in (0.25, 9.0):
            out.append(((yield engine.timeout(delay, delay)), engine.now))

    proc = engine.process(sleeper())
    engine.schedule(1.0, proc.interrupt, "wake up")
    engine.run()
    assert out == [("interrupted", 1.0), (0.25, 1.25), (9.0, 10.25)]


def test_public_schedule_handles_are_never_pooled():
    engine = Engine()
    fired = []
    h = engine.schedule(0.1, fired.append, "first")
    engine.run()
    # A very late cancel of a long-fired public handle is harmless: the
    # next schedule is a different entry.
    engine.cancel(h)
    engine.schedule(0.1, fired.append, "second")
    engine.cancel(h)
    engine.run()
    assert fired == ["first", "second"]
    assert engine._dead == 0


def test_public_events_are_never_pooled():
    """A retained, fired event keeps its outcome whatever is created
    and fired after it."""
    engine = Engine()
    ev = engine.event()
    got = []

    def waiter():
        got.append((yield ev))
        for i in range(3):
            got.append((yield engine.event().succeed(i)))
            got.append((yield engine.event().succeed("later")))

    engine.process(waiter())
    ev.succeed("x")
    engine.run()
    assert got == ["x", 0, "later", 1, "later", 2, "later"]
    assert ev.triggered and ev.ok and ev.value == "x"
