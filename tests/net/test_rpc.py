"""RPC: calls, replies, remote errors, timeouts, crash semantics."""

import pytest

from repro.config import CostModel
from repro.net import Network, RemoteError, RpcEndpoint, SiteUnreachable
from repro.sim import Engine


@pytest.fixture
def rig():
    eng = Engine()
    net = Network(eng, CostModel())
    a = RpcEndpoint(eng, net, 1, eng.process, timeout=2.0)
    b = RpcEndpoint(eng, net, 2, eng.process, timeout=2.0)
    return eng, net, a, b


def run_call(eng, gen):
    """Drive a client generator to completion; return (value, exc)."""
    box = {}

    def wrapper():
        try:
            box["value"] = yield from gen
        except Exception as exc:  # noqa: BLE001 - tests inspect the failure
            box["exc"] = exc

    eng.process(wrapper())
    eng.run()
    return box.get("value"), box.get("exc")


def test_call_round_trip(rig):
    eng, _net, a, b = rig

    def echo(body, src):
        return {"echo": body["x"], "from": src}
        yield  # pragma: no cover

    b.register("echo", echo)
    value, exc = run_call(eng, a.call(2, "echo", {"x": 41}))
    assert exc is None
    assert value == {"echo": 41, "from": 1}
    # One round trip: at least 2 * 8ms elapsed.
    assert eng.now >= 0.016


def test_handler_may_do_simulated_work(rig):
    eng, _net, a, b = rig

    def slow(body, src):
        yield eng.timeout(0.5)
        return {"done": True}

    b.register("slow", slow)
    value, exc = run_call(eng, a.call(2, "slow"))
    assert value == {"done": True}
    assert eng.now >= 0.5 + 0.016


def test_concurrent_requests_are_served_concurrently(rig):
    eng, _net, a, b = rig

    def slow(body, src):
        yield eng.timeout(1.0)
        return {}

    b.register("slow", slow)
    done_at = []

    def client(tag):
        yield from a.call(2, "slow")
        done_at.append(eng.now)

    eng.process(client(1))
    eng.process(client(2))
    eng.run()
    # Handlers overlap: both finish ~1s + round trip, not 2s apart.
    assert max(done_at) - min(done_at) < 0.01


def test_remote_exception_becomes_remote_error(rig):
    eng, _net, a, b = rig

    def bad(body, src):
        raise ValueError("broken handler")
        yield  # pragma: no cover

    b.register("bad", bad)
    _value, exc = run_call(eng, a.call(2, "bad"))
    assert isinstance(exc, RemoteError)
    assert "broken handler" in str(exc)


def test_missing_handler_is_remote_error(rig):
    eng, _net, a, _b = rig
    _value, exc = run_call(eng, a.call(2, "nope"))
    assert isinstance(exc, RemoteError)


def test_call_to_crashed_site_times_out(rig):
    eng, net, a, _b = rig
    net.crash_site(2)
    _value, exc = run_call(eng, a.call(2, "echo"))
    assert isinstance(exc, SiteUnreachable)
    assert eng.now >= 2.0


def test_call_across_partition_times_out(rig):
    eng, net, a, _b = rig
    net.partition([1], [2])
    _value, exc = run_call(eng, a.call(2, "anything", timeout=0.5))
    assert isinstance(exc, SiteUnreachable)


def test_cast_is_one_way(rig):
    eng, _net, a, b = rig
    seen = []

    def note(body, src):
        seen.append(body["v"])
        return {}
        yield  # pragma: no cover

    b.register("note", note)
    a.cast(2, "note", {"v": 9})
    eng.run()
    assert seen == [9]


def test_endpoint_stop_then_reboot(rig):
    """A crash stops the endpoint and takes the site off the network; a
    reboot is the network's alone -- the endpoint serves again with no
    call of its own."""
    eng, net, a, b = rig

    def echo(body, src):
        return {"pong": True}
        yield  # pragma: no cover

    b.register("echo", echo)
    b.stop()
    net.crash_site(2)
    _value, exc = run_call(eng, a.call(2, "echo", timeout=0.5))
    assert isinstance(exc, SiteUnreachable)

    net.restart_site(2)
    value, exc = run_call(eng, a.call(2, "echo"))
    assert exc is None and value == {"pong": True}


def test_stop_fails_the_calls_in_flight(rig):
    """The local site's crash fails its outstanding calls at once, not
    at their deadlines, and leaves nothing registered."""
    eng, net, a, b = rig

    def slow(body, src):
        yield eng.timeout(1.0)
        return {}

    b.register("slow", slow)
    outcomes = []

    def caller():
        try:
            yield from a.call(2, "slow")
        except SiteUnreachable as exc:
            outcomes.append((eng.now, str(exc)))

    eng.process(caller())
    eng.schedule(0.5, a.stop)
    eng.run()
    assert outcomes == [(0.5, "local site crashed")]
    assert a._pending == {}


def test_duplicate_handler_registration_rejected(rig):
    _eng, _net, _a, b = rig
    b.register("k", lambda body, src: iter(()))
    with pytest.raises(Exception):
        b.register("k", lambda body, src: iter(()))


def test_bulk_reply_sizes_affect_latency(rig):
    eng, _net, a, b = rig

    def small(body, src):
        return {}
        yield  # pragma: no cover

    def bulk(body, src):
        return {"data": "D" * 10}, 4096
        yield  # pragma: no cover

    b.register("small", small)
    b.register("bulk", bulk)
    t = {}

    def client():
        t0 = eng.now
        yield from a.call(2, "small")
        t["small"] = eng.now - t0
        t0 = eng.now
        yield from a.call(2, "bulk")
        t["bulk"] = eng.now - t0

    eng.process(client())
    eng.run()
    assert t["bulk"] > t["small"]
