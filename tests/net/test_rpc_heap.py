"""Heap-size regression pins for the RPC timeout race.

Every RPC call arms a deadline.  When the reply wins -- the common case
-- the losing deadline entry must be *cancelled* (and eventually
compacted away), not left to pop at its far-future deadline: a server
doing thousands of calls with a long timeout would otherwise drag an
ever-growing tail of dead heap entries through every subsequent pop.
"""

import pytest

from math import inf

from repro.config import CostModel
from repro.net import Network, RpcEndpoint
from repro.net.rpc import SiteUnreachable
from repro.sim import Engine
from repro.sim.errors import Interrupt


@pytest.fixture
def rig():
    engine = Engine()
    net = Network(engine, CostModel())
    client = RpcEndpoint(engine, net, 1, engine.process, timeout=60.0)
    server = RpcEndpoint(engine, net, 2, engine.process, timeout=60.0)

    def echo(body, src):
        return body
        yield  # pragma: no cover - marks the handler as a generator

    server.register("ping", echo)
    return engine, net, client


def test_reply_wins_do_not_accumulate_dead_deadline_entries(rig):
    engine, _net, client = rig
    samples = []

    def caller():
        for i in range(300):
            reply = yield from client.call(2, "ping", {"i": i})
            assert reply == {"i": i}
            samples.append(len(engine._heap))

    engine.process(caller())
    engine.run()
    assert len(samples) == 300
    # Uncancelled, every one of the 300 won races would leave its dead
    # 60-second deadline entry in the heap (the tail would reach ~300).
    # Cancellation plus compaction keeps the heap bounded by the
    # compaction threshold, not by the call count.
    assert max(samples) <= 80
    assert samples[-1] <= 80


def test_timed_out_call_still_raises_and_cleans_up(rig):
    engine, net, client = rig
    net.loss_filter = lambda msg: True  # black hole: every send is lost
    outcomes = []

    def caller():
        try:
            yield from client.call(2, "ping", {}, timeout=0.5)
        except SiteUnreachable:
            outcomes.append("timeout")
        # The losing _ReplyWait was resolved by its deadline: it must
        # have been unregistered so a (never-coming) late reply finds
        # nothing.
        assert client._pending == {}

    engine.process(caller())
    engine.run()
    assert outcomes == ["timeout"]


def _interruptible_call(client, outcomes, timeout):
    try:
        yield from client.call(2, "ping", {}, timeout=timeout)
        outcomes.append("reply")
    except Interrupt:
        outcomes.append("interrupted")
    except SiteUnreachable:
        outcomes.append("timeout")


@pytest.mark.parametrize("timeout", [inf, 30.0])
def test_interrupted_call_leaves_nothing_registered_or_armed(rig, timeout):
    """A caller interrupted (transaction abort, topology change) while
    its request is lost unregisters its reply waitable and cancels its
    deadline, exactly as a timed-out caller does."""
    engine, net, client = rig
    net.loss_filter = lambda msg: True
    outcomes = []
    callers = [engine.process(_interruptible_call(client, outcomes, timeout))
               for _ in range(50)]
    for proc in callers:
        engine.schedule(1.0, proc.interrupt, "abort")
    engine.run(until=2.0)
    assert outcomes == ["interrupted"] * 50
    assert client._pending == {}
    assert all(entry[2] is None for entry in engine._heap)
    engine.run()
    assert engine._dead == 0


def test_late_cancels_count_no_tombstones(rig):
    """Cancelling what already fired -- public handles, the deadline of
    a timed-out call -- is a no-op: ``_dead``
    counts only tombstones that are really queued, so compaction sweeps
    are not brought forward."""
    engine, net, client = rig
    net.loss_filter = lambda msg: True
    outcomes = []
    handles = [engine.schedule(0.1, outcomes.append, i) for i in range(10)]
    engine.process(_interruptible_call(client, outcomes, 0.5))
    engine.run()
    assert outcomes == list(range(10)) + ["timeout"]
    for handle in handles:
        engine.cancel(handle)
    assert engine._dead == 0


def test_nothing_grows_across_replies_timeouts_and_interrupts(rig):
    engine, net, client = rig
    outcomes = []

    def traffic():
        for _ in range(300):
            yield from _interruptible_call(client, outcomes, None)
        net.loss_filter = lambda msg: True
        lost = [engine.process(_interruptible_call(client, outcomes, t))
                for t in (0.5, 30.0, inf)]
        yield engine.timeout(1.0)
        for proc in lost[1:]:
            proc.interrupt("abort")

    engine.process(traffic())
    engine.run()
    assert outcomes == ["reply"] * 300 + ["timeout"] + ["interrupted"] * 2
    assert client._pending == {}
    assert not engine._heap and not engine._ready
    assert engine._dead == 0
