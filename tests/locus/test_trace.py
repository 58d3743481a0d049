"""The execution tracer: syscall and 2PC event capture."""

import pytest

from repro import Cluster, drive
from repro.core import TransactionId
from repro.locus.trace import Tracer


@pytest.fixture
def cluster():
    c = Cluster(site_ids=(1, 2))
    drive(c.engine, c.create_file("/f", site_id=1))
    drive(c.engine, c.populate("/f", b"." * 100))
    return c


def traced_run(cluster, prog, site_id=1):
    tracer = cluster.enable_tracing()
    proc = cluster.spawn(prog, site_id=site_id)
    cluster.run()
    assert proc.exit_status == "done", proc.exit_value
    return tracer, proc


def test_syscall_sequence_is_recorded(cluster):
    def prog(sys):
        fd = yield from sys.open("/f", write=True)
        yield from sys.seek(fd, 10)
        yield from sys.lock(fd, 5)
        yield from sys.write(fd, b"hello")
        yield from sys.close(fd)

    tracer, proc = traced_run(cluster, prog)
    kinds = [ev.kind for ev in tracer.select(pid=proc.pid)]
    assert kinds == ["open", "seek", "lock", "write", "close"]
    lock_ev = tracer.select(kind="lock")[0]
    assert lock_ev.get("start") == 10
    assert lock_ev.get("end") == 15


def test_transaction_protocol_events(cluster):
    def prog(sys):
        yield from sys.begin_trans()
        fd = yield from sys.open("/f", write=True)
        yield from sys.write(fd, b"txn")
        yield from sys.end_trans()

    tracer, _proc = traced_run(cluster, prog, site_id=2)
    kinds = tracer.kinds()
    for expected in ("begin_trans", "end_trans", "2pc.start",
                     "2pc.prepared", "2pc.commit_point", "2pc.applied"):
        assert expected in kinds, kinds
    # The prepare happened at the storage site, the commit point at the
    # coordinator.
    assert tracer.select(kind="2pc.prepared")[0].site_id == 1
    assert tracer.select(kind="2pc.commit_point")[0].site_id == 2
    # Event order respects the protocol.
    order = [ev.kind for ev in tracer.events
             if ev.kind.startswith("2pc.")]
    assert order.index("2pc.prepared") < order.index("2pc.commit_point")
    assert order.index("2pc.commit_point") < order.index("2pc.applied")


def test_abort_events(cluster):
    def prog(sys):
        yield from sys.begin_trans()
        fd = yield from sys.open("/f", write=True)
        yield from sys.write(fd, b"doomed")
        yield from sys.abort_trans()

    tracer, _proc = traced_run(cluster, prog)
    assert tracer.select(kind="abort_trans")
    assert tracer.select(kind="2pc.aborted")


def test_tracing_disabled_by_default(cluster):
    def prog(sys):
        fd = yield from sys.open("/f")
        yield from sys.read(fd, 5)

    proc = cluster.spawn(prog, site_id=1)
    cluster.run()
    assert cluster.tracer is None
    assert proc.exit_status == "done"


def test_capacity_bound_drops_excess():
    tracer = Tracer(capacity=2)
    for i in range(5):
        tracer.record(float(i), 1, 1, "x")
    assert len(tracer) == 2
    assert tracer.dropped == 3


def test_format_and_select_filters():
    tracer = Tracer()
    tracer.record(1.0, 1, 10, "open", path="/a")
    tracer.record(2.0, 2, 11, "read", fd=3)
    assert len(tracer.select(site_id=1)) == 1
    assert len(tracer.select(pid=11)) == 1
    text = tracer.format()
    assert "open" in text and "path='/a'" in text
    tracer.clear()
    assert len(tracer) == 0


def test_ids_are_recorded_as_strings_and_formatted_only_when_traced(
        cluster, monkeypatch):
    """Protocol code hands the tracer the id itself; the tracer stores
    its ``tid(...)`` name.  With no tracer attached nothing formats an
    id at all."""
    formatted = []
    stock_repr = TransactionId.__repr__
    monkeypatch.setattr(
        TransactionId, "__repr__",
        lambda self: formatted.append(self) or stock_repr(self))
    tids = []

    def prog(sys):
        yield from sys.begin_trans()
        tids.append(sys.tid)
        fd = yield from sys.open("/f", write=True)
        yield from sys.write(fd, b"txn")
        yield from sys.end_trans()

    proc = cluster.spawn(prog, site_id=2)
    cluster.run()
    assert proc.exit_status == "done" and not formatted

    tracer, _proc = traced_run(cluster, prog, site_id=2)
    named = [ev for ev in tracer.events if ev.get("tid") is not None]
    assert {ev.kind for ev in named} >= {
        "2pc.start", "2pc.prepared", "2pc.commit_point", "2pc.applied"}
    assert {ev.get("tid") for ev in named} == {stock_repr(tids[1])}
