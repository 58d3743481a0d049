"""Network: latency, crashes, partitions, topology notification."""

import pytest

from repro.config import CostModel
from repro.net import Message, Network, NetworkError
from repro.sim import Engine


@pytest.fixture
def setup():
    """Each site's receive appends ``(time, message)`` to its list."""
    eng = Engine()
    net = Network(eng, CostModel())
    got = {s: [] for s in (1, 2, 3)}
    for s, arrivals in got.items():
        net.attach(s, lambda msg, arrivals=arrivals:
                   arrivals.append((eng.now, msg)))
    return eng, net, got


def kinds(arrivals):
    return [msg.kind for _t, msg in arrivals]


def test_message_arrives_after_latency(setup):
    eng, net, got = setup
    net.send(Message(src=1, dst=2, kind="ping", body={"x": 1}, nbytes=64))
    eng.run()
    assert len(got[2]) == 1
    t, msg = got[2][0]
    assert msg.body == {"x": 1}
    # 8 ms base + 64 bytes at 0.8 us/byte
    assert t == pytest.approx(0.008 + 64 * 8e-7)


def test_larger_messages_take_longer(setup):
    eng, net, got = setup
    net.send(Message(src=1, dst=2, kind="small", nbytes=64))
    net.send(Message(src=1, dst=2, kind="page", nbytes=1024 + 64))
    eng.run()
    times = {msg.kind: t for t, msg in got[2]}
    assert times["page"] - times["small"] == pytest.approx(1024 * 8e-7)


def test_duplicate_attach_rejected(setup):
    _eng, net, _got = setup
    with pytest.raises(NetworkError):
        net.attach(1, list().append)


def test_unknown_destination_rejected(setup):
    _eng, net, _got = setup
    with pytest.raises(NetworkError):
        net.send(Message(src=1, dst=99, kind="x"))


def test_send_to_crashed_site_is_dropped(setup):
    eng, net, got = setup
    net.crash_site(2)
    net.send(Message(src=1, dst=2, kind="x"))
    eng.run()
    assert net.stats.get("net.dropped") == 1
    assert got[2] == []


def test_message_in_flight_to_crashing_site_is_lost(setup):
    eng, net, got = setup
    net.send(Message(src=1, dst=2, kind="x"))
    # Crash before the ~8ms delivery completes.
    eng.schedule(0.001, net.crash_site, 2)
    eng.run()
    assert net.stats.get("net.dropped") == 1
    assert got[2] == []


def test_restart_site_restores_delivery(setup):
    eng, net, got = setup
    net.crash_site(2)
    net.restart_site(2)
    net.send(Message(src=1, dst=2, kind="hello"))
    eng.run()
    assert kinds(got[2]) == ["hello"]


def test_partition_blocks_cross_group_traffic(setup):
    eng, net, got = setup
    net.partition([1], [2, 3])
    assert not net.reachable(1, 2)
    assert net.reachable(2, 3)
    net.send(Message(src=1, dst=2, kind="x"))
    net.send(Message(src=3, dst=2, kind="y"))
    eng.run()
    assert kinds(got[2]) == ["y"]


def test_heal_partition(setup):
    _eng, net, _got = setup
    net.partition([1], [2, 3])
    net.heal_partition()
    assert net.reachable(1, 2)


def test_partition_rejects_site_in_two_groups(setup):
    _eng, net, _got = setup
    with pytest.raises(NetworkError):
        net.partition([1, 2], [2, 3])


def test_topology_events_delivered_after_detection_delay(setup):
    eng, net, _got = setup
    events = []
    net.subscribe(lambda e: events.append((eng.now, e["type"])))
    eng.schedule(1.0, net.crash_site, 2)
    eng.run()
    assert events == [(1.0 + 0.1, "site_down")]


def test_byte_and_message_accounting(setup):
    eng, net, _got = setup
    net.send(Message(src=1, dst=2, kind="a", nbytes=100))
    net.send(Message(src=1, dst=3, kind="b", nbytes=200))
    eng.run()
    assert net.stats.get("net.messages") == 2
    assert net.stats.get("net.bytes") == 300
