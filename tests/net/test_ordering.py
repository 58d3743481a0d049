"""Message delivery ordering and edge behaviour of the simulated LAN."""

import pytest

from repro.config import CostModel
from repro.net import Message, Network
from repro.sim import Engine


@pytest.fixture
def rig():
    """Each site's receive appends the kind of what it is handed."""
    eng = Engine()
    net = Network(eng, CostModel())
    got = {s: [] for s in (1, 2)}
    for s, kinds in got.items():
        net.attach(s, lambda msg, kinds=kinds: kinds.append(msg.kind))
    return eng, net, got


def test_equal_size_messages_deliver_fifo(rig):
    eng, net, got = rig
    for i in range(3):
        net.send(Message(src=1, dst=2, kind="m%d" % i, nbytes=100))
    eng.run()
    assert got[2] == ["m0", "m1", "m2"]


def test_small_message_overtakes_bulk(rig):
    """Per-message latency is size-dependent, so a page transfer sent
    first can arrive after a small control message -- as on a real
    network with message fragmentation."""
    eng, net, got = rig
    net.send(Message(src=1, dst=2, kind="bulk", nbytes=64000))
    net.send(Message(src=1, dst=2, kind="ctl", nbytes=64))
    eng.run()
    assert got[2] == ["ctl", "bulk"]


def test_send_while_down_then_up_does_not_resurrect(rig):
    eng, net, got = rig
    net.crash_site(2)
    net.send(Message(src=1, dst=2, kind="lost"))
    net.restart_site(2)
    net.send(Message(src=1, dst=2, kind="fresh"))
    eng.run()
    assert got[2] == ["fresh"]


def test_sender_crash_mid_flight_drops(rig):
    eng, net, got = rig
    net.send(Message(src=1, dst=2, kind="victim", nbytes=64000))
    eng.schedule(0.001, net.crash_site, 1)  # sender dies before delivery
    net.restart_site(1)
    eng.run(until=5.0)
    assert got[2] == []  # in-flight message from a crashed site is lost


def test_site_ids_listing(rig):
    _eng, net, _got = rig
    assert net.site_ids == [1, 2]
    assert net.is_up(1)
    net.crash_site(1)
    assert not net.is_up(1)
    assert not net.reachable(1, 2)
