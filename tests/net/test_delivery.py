"""Delivery is an engine turn per message, not a server process.

The network keeps each site's FIFO of delivered messages and hands the
head to the site's ``receive`` in one posted engine turn: a turn is
posted when the queue goes from empty to non-empty, and again after
each handled message while the queue is still non-empty.  A crash drops
the queue, so a turn posted before it hands over nothing.
"""

from repro import Cluster, drive
from repro.config import CostModel
from repro.net import (HEADER_BYTES, Message, Network, RpcEndpoint,
                       SiteUnreachable)
from repro.sim import Engine


def _net():
    eng = Engine()
    return eng, Network(eng, CostModel())


def test_messages_landing_in_one_instant_take_one_turn_each():
    """Whatever one message's turn posts runs before the next message is
    handed over; the messages go in arrival order."""
    eng, net = _net()
    log = []

    def receive(msg):
        log.append(("receive", msg.kind, eng.now))
        eng.schedule(0, log.append, ("after", msg.kind, eng.now))

    net.attach(1, log.append)
    net.attach(2, receive)
    for kind in ("m0", "m1", "m2"):
        net.send(Message(src=1, dst=2, kind=kind))
    eng.run()
    t = CostModel().message_time(HEADER_BYTES)
    assert log == [(step, kind, t) for kind in ("m0", "m1", "m2")
                   for step in ("receive", "after")]


def test_a_request_is_served_before_the_next_message_is_handed_over():
    """The serve process a request starts takes its first step in the
    next turn, ahead of the next message's hand-over."""
    eng, net = _net()
    log = []

    def spawn(generator, name):
        log.append(("spawn", name))
        return eng.process(generator, name)

    def note(body, src):
        log.append(("step", body["n"]))
        return {}
        yield  # pragma: no cover - marks the handler as a generator

    client = RpcEndpoint(eng, net, 1, eng.process)
    server = RpcEndpoint(eng, net, 2, spawn)
    server.register("note", note)
    for n in range(3):
        client.cast(2, "note", {"n": n})
    eng.run()
    assert log == [entry for n in range(3)
                   for entry in (("spawn", "serve:note@2"), ("step", n))]


def test_a_turn_posted_before_a_crash_hands_over_nothing():
    """A crash and a reboot in the same instant as a delivery: the turn
    already posted finds the dropped queue, and later messages are
    handed over once each."""
    eng, net = _net()
    got = []
    net.attach(1, got.append)
    net.attach(2, lambda msg: got.append(msg.kind))
    net.send(Message(src=1, dst=2, kind="lost"))
    delivery = CostModel().message_time(HEADER_BYTES)

    def crash_and_reboot():
        assert len(eng._ready) == 1  # the turn for "lost" is posted
        net.crash_site(2)
        net.restart_site(2)
        net.send(Message(src=1, dst=2, kind="fresh"))

    # Scheduled after the send, so it fires after the delivery and
    # before the turn that delivery posted.
    eng.schedule(delivery, crash_and_reboot)
    eng.run()
    assert got == ["fresh"]
    assert net.stats.get("net.dropped") == 0


def test_a_partition_does_not_recall_a_delivered_message():
    """Reachability is checked at delivery: a message already queued
    at its site is handed over even if a partition follows at once."""
    eng, net = _net()
    got = []
    net.attach(1, got.append)
    net.attach(2, lambda msg: got.append(msg.kind))
    for kind in ("m0", "m1"):
        net.send(Message(src=1, dst=2, kind=kind))
    delivery = CostModel().message_time(HEADER_BYTES)
    eng.schedule(delivery, net.partition, [1], [2])
    eng.run()
    assert got == ["m0", "m1"]


def test_a_reply_after_the_deadline_finds_no_waiter():
    """A reply handed over after its call timed out resumes nobody and
    leaves nothing behind."""
    eng, net = _net()
    client = RpcEndpoint(eng, net, 1, eng.process, timeout=0.5)
    server = RpcEndpoint(eng, net, 2, eng.process)
    handed = []
    net._receivers[1] = lambda msg: (handed.append(msg.kind),
                                     client._receive(msg))

    def slow(body, src):
        yield eng.timeout(1.0)
        return {}

    server.register("slow", slow)
    outcomes = []

    def caller():
        try:
            yield from client.call(2, "slow")
        except SiteUnreachable:
            outcomes.append(eng.now)

    eng.process(caller())
    eng.run()
    assert outcomes == [0.5]
    assert handed == ["slow.reply"] and client._pending == {}


def test_a_rebooted_site_serves_requests_with_no_restart_step():
    """Reboot is the network's and the site's alone: the endpoint has
    nothing to restart, and the next request is served by a process the
    site owns."""
    cluster = Cluster(site_ids=(1, 2))
    site1, site2 = cluster.site(1), cluster.site(2)
    served = []

    def echo(body, src):
        served.append(cluster.engine.current_process in site2._owned)
        return {"echo": body["x"]}
        yield  # pragma: no cover - marks the handler as a generator

    site2.rpc.register("echo", echo)
    cluster.crash_site(2)
    cluster.restart_site(2, recover=False)
    assert not hasattr(site2.rpc, "restart")
    reply = drive(cluster.engine, site1.rpc.call(2, "echo", {"x": 7}))
    assert reply == {"echo": 7}
    assert served == [True]
