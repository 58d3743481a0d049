"""Idempotent-RPC retry: timed-out status queries and lease recalls are
deterministically resent; everything else still fails on first timeout."""

import pytest

from repro.config import CostModel, SystemConfig
from repro.net import (
    IDEMPOTENT_KINDS, MessageKinds, Network, RpcEndpoint, SiteUnreachable,
)
from repro.sim import Engine


@pytest.fixture
def rig():
    eng = Engine()
    net = Network(eng, CostModel())
    a = RpcEndpoint(eng, net, 1, eng.process, timeout=2.0, retries=1)
    b = RpcEndpoint(eng, net, 2, eng.process, timeout=2.0, retries=1)
    return eng, net, a, b


def run_call(eng, gen):
    box = {}

    def wrapper():
        try:
            box["value"] = yield from gen
        except Exception as exc:  # noqa: BLE001 - tests inspect the failure
            box["exc"] = exc

    eng.process(wrapper())
    eng.run()
    return box.get("value"), box.get("exc")


def drop_first(net, kind):
    """Loss filter: drop the first request of ``kind`` only."""
    dropped = []

    def loss(message):
        if message.kind == kind and not dropped:
            dropped.append(message)
            return True
        return False

    net.loss_filter = loss
    return dropped


def test_lease_recall_kind_is_idempotent():
    assert MessageKinds.LEASE_RECALL in IDEMPOTENT_KINDS
    assert MessageKinds.TXN_STATUS in IDEMPOTENT_KINDS
    assert MessageKinds.PREPARE not in IDEMPOTENT_KINDS
    assert MessageKinds.PAGE_READ not in IDEMPOTENT_KINDS


def test_idempotent_call_survives_one_dropped_request(rig):
    eng, net, a, b = rig
    served = []

    def handler(body, src):
        served.append(src)
        return {"ok": True}
        yield  # pragma: no cover

    b.register(MessageKinds.TXN_STATUS, handler)
    dropped = drop_first(net, MessageKinds.TXN_STATUS)
    value, exc = run_call(eng, a.call(2, MessageKinds.TXN_STATUS, {}))
    assert exc is None
    assert value == {"ok": True}
    assert len(dropped) == 1 and served == [1]
    # First attempt timed out (2 s) before the resend round-tripped.
    assert eng.now >= 2.0


def test_nonidempotent_call_fails_on_first_timeout(rig):
    eng, net, a, b = rig

    def handler(body, src):
        return {"ok": True}
        yield  # pragma: no cover

    b.register(MessageKinds.PAGE_READ, handler)
    dropped = drop_first(net, MessageKinds.PAGE_READ)
    _value, exc = run_call(eng, a.call(2, MessageKinds.PAGE_READ, {}))
    assert isinstance(exc, SiteUnreachable)
    assert len(dropped) == 1
    assert eng.now == pytest.approx(2.0)


def test_retries_exhausted_raises_unreachable(rig):
    eng, net, a, _b = rig
    net.loss_filter = lambda m: m.kind == MessageKinds.TXN_STATUS
    _value, exc = run_call(eng, a.call(2, MessageKinds.TXN_STATUS, {}))
    assert isinstance(exc, SiteUnreachable)
    # retries=1: exactly two attempts, each a full timeout window.
    assert eng.now == pytest.approx(4.0)


def test_timeout_and_retries_come_from_config():
    config = SystemConfig()
    assert config.rpc_timeout == 2.0
    assert config.rpc_idempotent_retries == 1
    eng = Engine()
    net = Network(eng, config.cost)
    ep = RpcEndpoint(eng, net, 1, eng.process, timeout=config.rpc_timeout,
                     retries=config.rpc_idempotent_retries)
    assert ep.timeout == 2.0 and ep.retries == 1
