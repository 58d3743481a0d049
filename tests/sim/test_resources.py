"""FIFO resources and servers."""

import pytest

from repro.sim import Engine, FifoResource, FifoServer, SimError


def test_fifo_resource_serializes_users():
    eng = Engine()
    disk = FifoResource(eng)
    order = []

    def user(tag):
        yield disk.acquire()
        order.append(("start", tag, eng.now))
        yield eng.timeout(1.0)
        disk.release()
        order.append(("end", tag, eng.now))

    for t in range(3):
        eng.process(user(t))
    eng.run()
    assert order == [
        ("start", 0, 0.0), ("end", 0, 1.0),
        ("start", 1, 1.0), ("end", 1, 2.0),
        ("start", 2, 2.0), ("end", 2, 3.0),
    ]


def test_fifo_resource_capacity_two_overlaps():
    eng = Engine()
    res = FifoResource(eng, capacity=2)
    starts = []

    def user(tag):
        yield res.acquire()
        starts.append((tag, eng.now))
        yield eng.timeout(1.0)
        res.release()

    for t in range(4):
        eng.process(user(t))
    eng.run()
    assert starts == [(0, 0.0), (1, 0.0), (2, 1.0), (3, 1.0)]


def test_release_without_acquire_rejected():
    eng = Engine()
    with pytest.raises(SimError):
        FifoResource(eng).release()


def _holder(eng, res, hold, log=None, tag=None):
    """The documented usage: acquire outside the try, release in finally."""
    yield res.acquire()
    try:
        if log is not None:
            log.append((tag, eng.now))
        yield eng.timeout(hold)
    finally:
        res.release()


def test_holder_killed_in_service_releases_the_slot():
    eng = Engine()
    res = FifoResource(eng)

    def waiter():
        yield res.acquire()
        res.release()
        return eng.now

    h = eng.process(_holder(eng, res, 100.0))
    w = eng.process(waiter())
    eng.schedule(5.0, h.kill)
    eng.run()
    assert w.value == 5.0  # slot freed when holder died


def test_holder_interrupted_in_service_releases_the_slot():
    eng = Engine()
    res = FifoResource(eng)
    log = []
    procs = [eng.process(_holder(eng, res, 10.0, log, t)) for t in range(2)]
    eng.schedule(4.0, procs[0].interrupt)
    eng.run()
    assert procs[0].failed and procs[1].state == "done"
    assert log == [(0, 0.0), (1, 4.0)]
    assert (res.in_use, res.queue_length) == (0, 0)


@pytest.mark.parametrize("stop", ["kill", "interrupt"])
def test_queued_waiter_that_stops_waiting_leaves_the_queue(stop):
    """The missed-release wedge: the slot used to be handed to a waiter
    that was no longer there, and nobody released it."""
    eng = Engine()
    res = FifoResource(eng)
    log = []
    procs = [eng.process(_holder(eng, res, 10.0, log, t)) for t in range(3)]
    eng.run(until=5.0)
    assert (res.in_use, res.queue_length) == (1, 2)
    getattr(procs[1], stop)()
    eng.run(until=6.0)
    assert (res.in_use, res.queue_length) == (1, 1)
    eng.run()
    assert log == [(0, 0.0), (2, 10.0)]
    assert procs[2].state == "done" and eng.now == 20.0
    assert (res.in_use, res.queue_length) == (0, 0)


def test_killing_every_user_leaves_the_resource_free():
    """What Site.crash does: holder and queue all die at one instant."""
    eng = Engine()
    res = FifoResource(eng)
    procs = [eng.process(_holder(eng, res, 10.0)) for _ in range(3)]
    eng.run(until=5.0)
    for proc in procs:
        proc.kill()
    eng.run(until=5.0)  # the grant in flight to procs[1] comes back
    assert (res.in_use, res.queue_length) == (0, 0)
    late = eng.process(_holder(eng, res, 10.0))
    eng.run()
    assert late.state == "done" and eng.now == 15.0


@pytest.mark.parametrize("stop", ["kill", "interrupt"])
def test_grant_in_flight_to_a_stopped_waiter_goes_straight_back(stop):
    """The slot is handed over at the release instant but the new owner
    only runs one engine entry later; if it stops in between, the next
    in line gets the slot at the same instant."""
    eng = Engine()
    res = FifoResource(eng)
    log = []
    procs = [eng.process(_holder(eng, res, 10.0, log, t)) for t in range(3)]
    # Fires at t=10 before the holder's timeout (scheduled earlier), so
    # the stop lands between release() and the grant's delivery only if
    # it is posted from the release instant itself:
    eng.schedule(10.0, lambda: eng.schedule(0, getattr(procs[1], stop)))
    eng.run()
    assert log == [(0, 0.0), (2, 10.0)]
    assert procs[2].state == "done" and eng.now == 20.0
    assert (res.in_use, res.queue_length) == (0, 0)


def test_idle_grant_in_flight_to_a_killed_process_goes_back():
    eng = Engine()
    res = FifoResource(eng)
    first = eng.process(_holder(eng, res, 10.0))
    eng.step()  # first yields acquire(): slot taken, grant posted
    assert res.in_use == 1
    first.kill()
    second = eng.process(_holder(eng, res, 10.0))
    eng.run()
    assert second.state == "done" and eng.now == 10.0
    assert (res.in_use, res.queue_length) == (0, 0)


def test_acquire_can_only_be_waited_for_by_a_process():
    eng = Engine()
    res = FifoResource(eng)
    with pytest.raises(NotImplementedError):
        res.acquire()._subscribe(lambda ok, value: None)
    assert res.in_use == 0


# ----------------------------------------------------------------------
# FifoServer: a queue whose service time is fixed
# ----------------------------------------------------------------------

def _customers(eng, server, n):
    def customer():
        yield server
        return eng.now

    return [eng.process(customer()) for _ in range(n)]


def test_fifo_server_serves_in_order_one_entry_per_request():
    eng = Engine()
    server = FifoServer(eng, 2.0)
    before = next(eng._seq)
    procs = _customers(eng, server, 3)
    eng.run(until=1.0)
    assert server.outstanding == 3
    eng.run()
    assert [p.value for p in procs] == [2.0, 4.0, 6.0]
    assert server.outstanding == 0
    # Three kickoffs and three completions: no grant hop, no timer.
    assert next(eng._seq) - before - 1 == 6

    def late():
        yield eng.timeout(4.0)  # the server has been idle since t=6
        yield server
        return eng.now

    proc = eng.process(late())
    eng.run()
    assert proc.value == 12.0


@pytest.mark.parametrize("stop", ["kill", "interrupt"])
@pytest.mark.parametrize("victim", [0, 1], ids=["in-service", "queued"])
def test_fifo_server_request_is_not_recalled(stop, victim):
    """A request whose process stops waiting still takes its turn."""
    eng = Engine()
    server = FifoServer(eng, 2.0)
    procs = _customers(eng, server, 3)
    eng.run(until=1.0)
    getattr(procs[victim], stop)()
    eng.run()
    assert [p.value for i, p in enumerate(procs) if i != victim] == [
        2.0 * (i + 1) for i in range(3) if i != victim]
    assert procs[victim].state != "done"
    assert server.outstanding == 0


@pytest.mark.parametrize("killed, served_at", [
    ((0, 1, 2), [None, None, None]),    # everyone: the server is idle
    ((0, 1), [None, None, 3.0]),        # in service + queued: next starts now
    ((1,), [2.0, None, 4.0]),           # queued only: in service untouched
    ((), [2.0, 4.0, 6.0]),              # nobody: nothing to drop
])
def test_fifo_server_drop_abandoned(killed, served_at):
    """What a site crash does: kill, then drop the requests of the dead.
    Requests still waited for keep their order; if the one in service
    was dropped the next is served from the drop instant."""
    eng = Engine()
    server = FifoServer(eng, 2.0)
    procs = _customers(eng, server, 3)
    eng.run(until=1.0)
    for i in killed:
        procs[i].kill()
    server.drop_abandoned()
    assert server.outstanding == 3 - len(killed)
    late = _customers(eng, server, 1)[0]
    eng.run()
    assert [p.value for p in procs] == served_at
    assert late.value == max([1.0] + [t for t in served_at if t]) + 2.0
    assert server.outstanding == 0

