"""Instant markers: deadlock-detector wait-for snapshots in the span
record and in the exported Chrome trace."""

import json

from repro import Cluster, drive
from repro.core import TransactionId
from repro.obs import Observability, build_report, to_chrome_trace
from tests.conftest import drive as drive_gen


def make_cluster():
    c = Cluster(site_ids=(1, 2))
    c.enable_observability()
    drive(c.engine, c.create_file("/x", site_id=1))
    drive(c.engine, c.create_file("/y", site_id=2))
    drive(c.engine, c.populate("/x", b"x" * 100))
    drive(c.engine, c.populate("/y", b"y" * 100))
    return c


def make_txn(path_first, path_second, delay):
    def prog(sys):
        yield from sys.sleep(delay)
        yield from sys.begin_trans()
        f1 = yield from sys.open(path_first, write=True)
        yield from sys.lock(f1, 10)
        yield from sys.sleep(1.0)   # both hold their first lock
        f2 = yield from sys.open(path_second, write=True)
        yield from sys.lock(f2, 10)
        yield from sys.write(f2, b"W" * 10)
        yield from sys.end_trans()

    return prog


def run_deadlock(cluster):
    t1 = cluster.spawn(make_txn("/x", "/y", 0.0), site_id=1)
    t2 = cluster.spawn(make_txn("/y", "/x", 0.1), site_id=2)
    cluster.run()
    return t1, t2


def test_detector_emits_waitfor_and_cycle_instants():
    cluster = make_cluster()
    run_deadlock(cluster)
    instants = cluster.obs.spans.instants
    waitfors = [m for m in instants if m.name == "deadlock.waitfor"]
    cycles = [m for m in instants if m.name == "deadlock.cycle"]
    assert waitfors, "detector scans with a non-empty graph must snapshot"
    assert len(cycles) == 1
    cycle = cycles[0]
    # The snapshot names the victim and the full cycle, compact labels.
    assert cycle.attrs["victim"].startswith("txn:")
    assert len(cycle.attrs["cycle"]) == 2
    assert all(label.startswith("txn:") for label in cycle.attrs["cycle"])
    # Each waitfor snapshot carries the edge list seen at scan time.
    assert all("->" in edge for m in waitfors for edge in m.attrs["edges"])


def test_instants_render_as_chrome_instant_events():
    cluster = make_cluster()
    run_deadlock(cluster)
    chrome = to_chrome_trace(cluster.obs.spans)
    marks = [e for e in chrome["traceEvents"] if e["ph"] == "i"]
    assert any(e["name"] == "deadlock.cycle" for e in marks)
    for event in marks:
        assert event["s"] == "p"           # process-scoped in Perfetto
        # args must be JSON-scalar (tuples stringified by the exporter).
        for value in event["args"].values():
            assert isinstance(value, (int, float, str, bool, type(None)))


def test_report_counts_instants():
    cluster = make_cluster()
    run_deadlock(cluster)
    report = build_report(cluster, scenario="deadlock")
    assert report["spans"]["instants"] == len(cluster.obs.spans.instants)
    assert report["spans"]["instants"] > 0


def test_no_deadlock_no_cycle_instants():
    """Plain contention: wait-for snapshots may fire, a cycle never."""
    cluster = make_cluster()

    def prog(sys, delay):
        yield from sys.sleep(delay)
        yield from sys.begin_trans()
        fd = yield from sys.open("/x", write=True)
        yield from sys.lock(fd, 10)
        yield from sys.sleep(2.0)
        yield from sys.end_trans()

    cluster.spawn(lambda s: prog(s, 0.0), site_id=1)
    cluster.spawn(lambda s: prog(s, 0.1), site_id=1)
    cluster.run()
    names = {m.name for m in cluster.obs.spans.instants}
    assert "deadlock.cycle" not in names


def test_instant_is_pure_observer(eng):
    """Recording an instant advances nothing and schedules nothing."""
    obs = Observability(eng).install()

    def prog():
        before = eng.now
        obs.spans.instant("marker", site_id=1, detail="x")
        assert eng.now == before
        yield eng.timeout(0.1)

    drive_gen(eng, prog())
    marker, = obs.spans.instants
    assert marker.ts == 0.0
    assert marker.attrs == {"detail": "x"}


def test_a_raw_transaction_id_exports_as_its_name_never_as_a_list(eng):
    """The id is a tuple, which ``json`` would silently write as a
    three-element list: the exporter must keep stringifying it."""
    obs = Observability(eng).install()
    tid = TransactionId(timestamp=1.5, site_id=2, sequence=7)
    obs.spans.instant("marker", site_id=1, txn=tid, holder=("txn", tid))
    obs.end(obs.span("rpc.call", 1, "trans.prepare", tid))
    doc = json.loads(json.dumps(to_chrome_trace(obs.spans)))
    span_args, marker_args = [
        e["args"] for e in doc["traceEvents"] if e["ph"] in ("i", "X")]
    assert span_args["dst"] == "tid(1.5.2.7)"
    assert marker_args["txn"] == "tid(1.5.2.7)"
    assert marker_args["holder"] == "('txn', tid(1.5.2.7))"
