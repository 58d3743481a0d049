"""End-to-end observability of a distributed commit: the spans and
instants are the system's one execution trace."""

import pytest

from repro import Cluster, drive
from repro.core import TransactionId
from repro.obs import (Observability, build_report, to_chrome_trace,
                       validate_report)


def make_cluster():
    c = Cluster(site_ids=(1, 2, 3))
    drive(c.engine, c.create_file("/db/a", site_id=1))
    drive(c.engine, c.populate("/db/a", b"." * 128))
    drive(c.engine, c.create_file("/db/b", site_id=3))
    drive(c.engine, c.populate("/db/b", b"." * 128))
    return c


def distributed_txn(sysc):
    yield from sysc.begin_trans()
    fda = yield from sysc.open("/db/a", write=True)
    yield from sysc.lock(fda, 32)
    yield from sysc.write(fda, b"a" * 32)
    fdb = yield from sysc.open("/db/b", write=True)
    yield from sysc.write(fdb, b"b" * 32)
    yield from sysc.end_trans()
    return "done"


@pytest.fixture
def committed():
    cluster = make_cluster()
    obs = cluster.enable_observability()
    proc = cluster.spawn(distributed_txn, site_id=2, name="writer")
    cluster.run()
    assert proc.exit_status == "done", proc.exit_value
    return cluster, obs


def test_commit_renders_as_one_causal_tree(committed):
    """The acceptance shape: coordinator and participant spans of a
    distributed commit share one trace, linked by parent ids."""
    _cluster, obs = committed
    txn_span, = obs.spans.select(name="txn")
    trace = txn_span.trace_id
    assert txn_span.parent_id is None

    # The whole lifecycle lives in the transaction's trace.
    for name in ("syscall.end_trans", "2pc", "2pc.prepare", "2pc.apply",
                 "rpc.call", "rpc.serve", "disk.write"):
        spans = obs.spans.select(name=name, trace_id=trace)
        assert spans, "no %s spans in the transaction trace" % name

    # Participant-side prepares happened at both storage sites and
    # chain back to the coordinator's 2pc span through the RPC link.
    prepare_sites = {s.site_id
                     for s in obs.spans.select(name="2pc.prepare",
                                               trace_id=trace)}
    assert {1, 3} <= prepare_sites
    twopc, = obs.spans.select(name="2pc", trace_id=trace)
    for prep in obs.spans.select(name="2pc.prepare", trace_id=trace):
        hops = 0
        node = prep
        while node is not None and node.span_id != twopc.span_id:
            node = obs.spans.get(node.parent_id)
            hops += 1
            assert hops < 20, "2pc.prepare not reachable from the 2pc span"
        assert node is not None


def test_lifecycle_spans_are_closed(committed):
    _cluster, obs = committed
    for name in ("txn", "2pc", "2pc.prepare", "2pc.apply", "rpc.call",
                 "syscall.end_trans", "lock.wait", "disk.read", "disk.write"):
        for span in obs.spans.select(name=name):
            assert span.end is not None, "%s left open" % (span,)
    txn_span, = obs.spans.select(name="txn")
    assert txn_span.status == "resolved"


def test_required_metrics_recorded(committed):
    _cluster, obs = committed
    assert obs.metrics.sketch(2, "commit.latency").count == 1
    assert obs.metrics.sketch(1, "lock.wait").count >= 1
    assert obs.metrics.sketch(2, "rpc.rtt").count >= 1
    assert obs.metrics.sketch(1, "disk.io").count >= 1
    # Commit latency is a real positive virtual duration.
    assert obs.metrics.sketch(2, "commit.latency").max > 0


def test_twophase_spans_sit_at_their_sites_in_protocol_order(committed):
    """Prepare runs at the storage sites, the coordinator's ``2pc`` span
    at the requesting site, and each participant prepares before the
    commit point (the ``2pc`` span's end) before it applies."""
    _cluster, obs = committed
    twopc, = obs.spans.select(name="2pc")
    assert twopc.site_id == 2 and twopc.status == "committed"
    prepares = obs.spans.select(name="2pc.prepare")
    applies = obs.spans.select(name="2pc.apply")
    assert {s.site_id for s in prepares} == {1, 3}
    assert {s.site_id for s in applies} == {1, 3}
    for site in (1, 3):
        prep, = [s for s in prepares if s.site_id == site]
        apply, = [s for s in applies if s.site_id == site]
        assert prep.status == "prepared"
        assert twopc.start <= prep.start and prep.end <= twopc.end
        assert twopc.end <= apply.start


def test_abort_path_records_2pc_abort_at_the_storage_site():
    """An explicit AbortTrans: the storage site rolls back under a
    ``2pc.abort`` span (nothing prepares or applies) and the abort's
    cause is one ``abort.provenance`` instant in the txn's trace."""
    cluster = make_cluster()
    obs = cluster.enable_observability(provenance=True)

    def prog(sysc):
        yield from sysc.begin_trans()
        fd = yield from sysc.open("/db/a", write=True)
        yield from sysc.write(fd, b"doomed")
        yield from sysc.abort_trans()

    proc = cluster.spawn(prog, site_id=2, name="aborter")
    cluster.run()
    assert proc.exit_status == "done", proc.exit_value
    txn_span, = obs.spans.select(name="txn")
    aborts = obs.spans.select(name="2pc.abort", trace_id=txn_span.trace_id)
    assert 1 in {s.site_id for s in aborts}
    assert all(s.status == "aborted" for s in aborts)
    assert not obs.spans.select(name="2pc.prepare")
    assert not obs.spans.select(name="2pc.apply")
    cause, = obs.spans.instants
    assert cause.name == "abort.provenance" and cause.site_id == 2
    assert cause.attrs["cause"] == "explicit"
    assert cause.attrs["trace"] == txn_span.trace_id


def test_commit_without_observers_formats_no_transaction_id(monkeypatch):
    """Protocol code hands observers the id itself; with none attached,
    nothing on the commit path formats a ``TransactionId``."""
    formatted = []
    stock_repr = TransactionId.__repr__
    monkeypatch.setattr(
        TransactionId, "__repr__",
        lambda self: formatted.append(self) or stock_repr(self))
    cluster = make_cluster()
    proc = cluster.spawn(distributed_txn, site_id=2, name="writer")
    cluster.run()
    assert proc.exit_status == "done", proc.exit_value
    assert cluster.txn_registry.all() and not formatted


def test_chrome_trace_export_shape(committed):
    cluster, obs = committed
    doc = to_chrome_trace(obs.spans)
    events = doc["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    assert len(complete) == len(obs.spans)
    # Microsecond timestamps on the virtual timeline.
    assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in complete)
    # Site names announced per pid; causal ids on every slice.
    assert any(e["ph"] == "M" and e["name"] == "process_name" for e in events)
    assert all("trace_id" in e["args"] and "span_id" in e["args"]
               for e in complete)
    # Cross-site causality drawn as flow arrows.
    assert any(e["ph"] == "s" for e in events)
    assert any(e["ph"] == "f" for e in events)


def test_report_builds_and_validates(committed):
    cluster, _obs = committed
    report = build_report(cluster, scenario="unit")
    validate_report(report)
    assert report["spans"]["recorded"] > 0
    assert report["spans"]["dropped"] == 0


def test_report_requires_observability():
    cluster = make_cluster()
    with pytest.raises(ValueError, match="enable_observability"):
        build_report(cluster)


def test_deterministic_reports():
    """Two identical instrumented runs produce identical documents."""
    docs = []
    for _ in range(2):
        cluster = make_cluster()
        cluster.enable_observability()
        proc = cluster.spawn(distributed_txn, site_id=2, name="writer")
        cluster.run()
        assert proc.exit_status == "done"
        docs.append(build_report(cluster, scenario="repeat"))
    assert docs[0] == docs[1]


def test_abort_closes_txn_span():
    cluster = make_cluster()
    obs = cluster.enable_observability()

    def prog(sysc):
        yield from sysc.begin_trans()
        fd = yield from sysc.open("/db/a", write=True)
        yield from sysc.write(fd, b"doomed")
        yield from sysc.abort_trans()
        return "survived"

    proc = cluster.spawn(prog, site_id=2, name="aborter")
    cluster.run()
    assert proc.exit_status == "done", proc.exit_value
    txn_span, = obs.spans.select(name="txn")
    assert txn_span.end is not None
    assert txn_span.status == "aborted"


def _lose_top_level_site(install):
    """A two-file transaction whose top-level site (2) crashes at t=1.0
    while it still holds its writes; returns the observer's ``txn``
    root span."""
    cluster = make_cluster()
    obs = install(cluster)

    def prog(sysc):
        yield from sysc.begin_trans()
        fda = yield from sysc.open("/db/a", write=True)
        yield from sysc.write(fda, b"a" * 32)
        fdb = yield from sysc.open("/db/b", write=True)
        yield from sysc.write(fdb, b"b" * 32)
        yield from sysc.sleep(5.0)
        yield from sysc.end_trans()

    cluster.spawn(prog, site_id=2, name="stranded")
    cluster.engine.schedule(1.0 - cluster.engine.now, cluster.crash_site, 2)
    cluster.run()
    root, = obs.spans.select(name="txn")
    return root


@pytest.mark.parametrize("install", [
    lambda cluster: cluster.enable_observability(),
    lambda cluster: Observability(cluster.engine).install(),
], ids=["enable_observability", "install"])
def test_lost_top_level_site_closes_the_txn_root(install):
    """The topology handler ends the stranded transaction's root through
    ``engine.obs``, however the observer was installed."""
    root = _lose_top_level_site(install)
    assert (root.end, root.status) == (1.1, "aborted")

