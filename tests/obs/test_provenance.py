"""Abort provenance: every abort carries exactly one cause.

The fault matrix from docs/OBSERVABILITY.md ("Abort provenance"): a
deadlock victim names its wait-for cycle and the closing range; a lock
timeout names its blockers; a coordinator crash mid-batch, a dropped
LEASE_RECALL, and a partition during phase two all leave no abort
unclassified (and fabricate no record for transactions that survive);
and the same contended workload disambiguates lock-timeout from
deadlock-victim purely by which mechanism fired first.  The wasted-work
ledger and windowed hotness ride on the same records, with the exact
integer category-sum invariant the schema enforces.
"""

import pytest

from repro import Cluster, SystemConfig, drive
from repro.core.transaction import TxnState
from repro.locus import TransactionAborted
from repro.net import MessageKinds
from repro.obs import Observability
from repro.obs.lint import lint_provenance
from repro.obs.provenance import CAUSES, classify_reason


def build(config=None, files=(), site_ids=(1, 2, 3)):
    cluster = Cluster(site_ids=site_ids, config=config)
    cluster.enable_observability(monitors=True, strict=False,
                                 provenance=True)
    for path, site_id, contents in files:
        drive(cluster.engine, cluster.create_file(path, site_id=site_id))
        if contents:
            drive(cluster.engine, cluster.populate(path, contents))
    return cluster


def classified(cluster):
    """Every aborted transaction has exactly one cause from the
    taxonomy, and the lint rules find nothing."""
    prov = cluster.obs.provenance
    aborted = [txn for txn in cluster.txn_registry.all()
               if txn.state == TxnState.ABORTED]
    for txn in aborted:
        rec = prov.by_tid.get(txn.tid)
        assert rec is not None, "abort %s unclassified" % (txn.tid,)
        assert rec.cause in CAUSES
    # One record per tid -- "exactly one cause" -- and nothing invented
    # for transactions that committed.
    tids = [rec.tid for rec in prov.records]
    assert len(tids) == len(set(tids))
    resolved = {txn.tid for txn in cluster.txn_registry.all()
                if txn.state == TxnState.RESOLVED}
    assert not resolved & set(prov.by_tid)
    assert lint_provenance(cluster.obs) == []
    return prov


# ----------------------------------------------------------------------
# taxonomy
# ----------------------------------------------------------------------

def test_classify_reason_covers_the_stack_s_abort_strings():
    assert classify_reason("deadlock victim") == "deadlock"
    assert classify_reason("lock wait timeout on f [0,16) at site 1 "
                           "after 0.5s") == "lock_timeout"
    assert classify_reason("AbortTrans") == "explicit"
    assert classify_reason("prepare timeout at site 3") == "rpc_timeout"
    assert classify_reason("no reply from site 2") == "rpc_timeout"
    assert classify_reason("site 2 unreachable") == "rpc_timeout"
    assert classify_reason("topology change: lost [1]") == "rpc_timeout"
    assert classify_reason("site 1 crashed") == "crash"
    assert classify_reason(None) == "crash"


def test_record_is_first_write_wins_and_rejects_unknown_causes():
    cluster = build()
    prov = cluster.obs.provenance
    first = prov.record(41, "deadlock", reason="deadlock victim")
    second = prov.record(41, "crash", reason="later, poorer story")
    assert second is first
    assert prov.by_tid[41].cause == "deadlock"
    assert len(prov) == 1
    with pytest.raises(ValueError):
        prov.record(42, "meteor")


# ----------------------------------------------------------------------
# deadlock victims
# ----------------------------------------------------------------------

def _abba(path_first, path_second, delay):
    def prog(sys):
        yield from sys.sleep(delay)
        yield from sys.begin_trans()
        f1 = yield from sys.open(path_first, write=True)
        yield from sys.lock(f1, 10)
        yield from sys.sleep(1.0)      # both hold their first lock
        f2 = yield from sys.open(path_second, write=True)
        yield from sys.lock(f2, 10)
        yield from sys.write(f2, b"W" * 10)
        yield from sys.end_trans()
        return "committed"
    return prog


def _deadlock_cluster(config=None):
    cluster = build(config=config,
                    files=[("/x", 1, b"x" * 100), ("/y", 2, b"y" * 100)],
                    site_ids=(1, 2))
    t1 = cluster.spawn(_abba("/x", "/y", 0.0), site_id=1, name="t1")
    t2 = cluster.spawn(_abba("/y", "/x", 0.1), site_id=2, name="t2")
    cluster.run()
    return cluster, t1, t2


def test_deadlock_victim_carries_cycle_members_and_closing_range():
    cluster, t1, t2 = _deadlock_cluster()
    assert t1.exit_status == "done" and t2.failed
    prov = classified(cluster)
    assert prov.cause_counts() == {"deadlock": 1}
    rec = prov.records[0]
    assert rec.cause == "deadlock"
    # Full cycle membership, ordered edges with contention points, and
    # the closing edge (the wait that completed the cycle).
    assert len(rec.detail["cycle"]) == 2
    assert all(member.startswith("txn:") for member in rec.detail["cycle"])
    assert len(rec.detail["edges"]) == 2
    closing = rec.detail["closing"]
    assert closing is not None
    _w, _b, site, file_id, start, end = closing[:6]
    assert site in ("1", "2")
    assert (int(start), int(end)) == (0, 10)
    # The victim is the younger transaction and the record names it.
    assert rec.tid == max(r.tid for r in prov.records)


def test_provenance_alone_records_the_deadlock_victim():
    """With the hub the only observer attached, the detector's
    announcement alone carries the victim's full record."""
    cluster = Cluster(site_ids=(1, 2))
    prov = Observability(cluster.engine).install().attach_provenance()
    for path, site_id, contents in (("/x", 1, b"x" * 100),
                                    ("/y", 2, b"y" * 100)):
        drive(cluster.engine, cluster.create_file(path, site_id=site_id))
        drive(cluster.engine, cluster.populate(path, contents))
    cluster.spawn(_abba("/x", "/y", 0.0), site_id=1, name="t1")
    cluster.spawn(_abba("/y", "/x", 0.1), site_id=2, name="t2")
    cluster.run()
    assert prov.section()["causes"] == {"deadlock": 1}
    rec, = prov.records
    assert len(rec.detail["edges"]) == 2 and rec.detail["closing"]


def test_deadlock_cycle_instant_names_victim_edges_and_closing():
    cluster, _t1, _t2 = _deadlock_cluster()
    instants = [i for i in cluster.obs.spans.instants
                if i.name == "deadlock.cycle"]
    assert len(instants) == 1
    attrs = instants[0].attrs
    assert attrs["victim"].startswith("txn:")
    assert attrs["victim"] in attrs["cycle"]
    assert len(attrs["edges"]) == len(attrs["cycle"]) == 2
    assert attrs["closing"] in attrs["edges"]


# ----------------------------------------------------------------------
# lock timeouts, and the timeout-vs-deadlock disambiguation
# ----------------------------------------------------------------------

def test_lock_timeout_vs_deadlock_victim_on_the_same_workload():
    """The identical seeded AB-BA workload: with ``lock_timeout`` off
    the detector kills the youngest as a deadlock victim; with a short
    timeout the older waiter's timer fires before the cycle even
    closes, so the abort reclassifies as ``lock_timeout`` -- with the
    blocking holder named."""
    no_timeout, _t1, _t2 = _deadlock_cluster()
    assert classified(no_timeout).cause_counts() == {"deadlock": 1}

    timed, t1, t2 = _deadlock_cluster(
        config=SystemConfig(lock_timeout=0.05))
    prov = classified(timed)
    assert prov.cause_counts() == {"lock_timeout": 1}
    assert t2.exit_status == "done" and t1.failed
    assert isinstance(t1.exit_value, TransactionAborted)
    assert "lock wait timeout" in str(t1.exit_value)
    rec = prov.records[0]
    assert rec.detail["blockers"], "timeout record must name its blockers"
    assert all(b.startswith("txn:") for b in rec.detail["blockers"])
    assert (int(rec.detail["start"]), int(rec.detail["end"])) == (0, 10)


def test_lock_timeout_classifies_local_and_remote_waiters():
    """One holder pins a range; a same-site waiter (local lock path)
    and a cross-site waiter (remote LOCK_REQUEST path) both time out,
    and both records carry the blocked range, the arbitrating site, and
    the holder."""
    cluster = build(config=SystemConfig(lock_timeout=0.2),
                    files=[("/f", 1, b"." * 100)], site_ids=(1, 2))
    held = []

    def holder(sys):
        yield from sys.begin_trans()
        fd = yield from sys.open("/f", write=True)
        yield from sys.lock(fd, 32)
        held.append(sys.tid)
        yield from sys.sleep(2.0)
        yield from sys.end_trans()
        return "committed"

    def waiter(sys):
        yield from sys.sleep(0.2)
        yield from sys.begin_trans()
        fd = yield from sys.open("/f", write=True)
        yield from sys.lock(fd, 32)
        yield from sys.end_trans()

    h = cluster.spawn(holder, site_id=1, name="holder")
    local = cluster.spawn(waiter, site_id=1, name="local")
    remote = cluster.spawn(waiter, site_id=2, name="remote")
    cluster.run()

    assert h.exit_status == "done"
    assert local.failed and remote.failed
    prov = classified(cluster)
    assert prov.cause_counts() == {"lock_timeout": 2}
    for rec in prov.records:
        assert rec.detail["lock_site"] == 1
        assert (int(rec.detail["start"]), int(rec.detail["end"])) == (0, 32)
        assert "txn:%s" % (held[0],) in rec.detail["blockers"]


# ----------------------------------------------------------------------
# fault matrix: crash, dropped recall, partition
# ----------------------------------------------------------------------

def _transfer(sys, offset, marker, paths, delay=0.0):
    if delay:
        yield from sys.sleep(delay)
    yield from sys.begin_trans()
    for path in paths:
        fd = yield from sys.open(path, write=True)
        yield from sys.seek(fd, offset)
        yield from sys.lock(fd, 16)
        yield from sys.write(fd, marker)
    yield from sys.end_trans()
    return sys.now


def test_coordinator_crash_mid_batch_classifies_every_abort():
    """The group-commit crash scenario: whatever the crash killed is
    classified (crash or rpc_timeout -- a machine went away either
    way), whatever recovery resolved carries no record."""
    n_txns = 4
    size = 16 * n_txns
    cluster = build(config=SystemConfig(commit_batching=True),
                    files=[("/gc/f2", 2, b"." * size),
                           ("/gc/f3", 3, b"." * size)])
    for i in range(n_txns):
        cluster.spawn(_transfer, i * 16, b"T%d" % i + b"!" * 14,
                      ("/gc/f2", "/gc/f3"), 0.002 * i,
                      site_id=1, name="txn%d" % i)
    cluster.engine.schedule(0.60, cluster.crash_site, 1)
    cluster.run()
    cluster.restart_site(1, recover=True)
    cluster.run()

    for txn in cluster.txn_registry.all():
        assert txn.state in (TxnState.RESOLVED, TxnState.ABORTED)
    prov = classified(cluster)
    assert set(prov.cause_counts()) <= {"crash", "rpc_timeout"}


def test_dropped_lease_recall_fabricates_no_abort_records():
    """The dropped-then-retried LEASE_RECALL path commits both
    transactions -- the provenance hub must stay empty (a negative
    control: fault handling that *succeeds* is not an abort)."""
    cluster = build(config=SystemConfig(lock_cache=True),
                    files=[("/f", 1, b"." * 20000)])
    dropped = []

    def loss(message):
        if message.kind == MessageKinds.LEASE_RECALL and not dropped:
            dropped.append(message)
            return True
        return False

    cluster.network.loss_filter = loss

    def leaseholder(sys):
        yield from sys.begin_trans()
        fd = yield from sys.open("/f", write=True)
        yield from sys.lock(fd, 50)
        yield from sys.sleep(1.0)
        yield from sys.write(fd, b"h" * 50)
        yield from sys.end_trans()

    def contender(sys):
        yield from sys.sleep(0.2)
        yield from sys.begin_trans()
        fd = yield from sys.open("/f", write=True)
        yield from sys.lock(fd, 50)
        yield from sys.end_trans()

    p1 = cluster.spawn(leaseholder, site_id=2)
    p2 = cluster.spawn(contender, site_id=3)
    cluster.run()
    assert p1.exit_status == "done" and p2.exit_status == "done"
    assert len(dropped) == 1
    assert len(classified(cluster)) == 0


def test_partition_during_phase_two_fabricates_no_abort_records():
    """Split right after the commit point: phase two retries past the
    heal, every transaction resolves, and no provenance record exists
    -- a committed transaction that *survived* a partition is not an
    abort."""
    cluster = build(files=[("/db/a", 1, b"." * 256),
                           ("/db/b", 3, b"." * 256)])

    def writer(sys):
        yield from sys.begin_trans()
        fda = yield from sys.open("/db/a", write=True)
        yield from sys.write(fda, b"x" * 48)
        fdb = yield from sys.open("/db/b", write=True)
        yield from sys.write(fdb, b"y" * 32)
        yield from sys.end_trans()
        return sys.now

    p = cluster.spawn(writer, site_id=2)
    cluster.engine.schedule(0.508, cluster.partition, (2,), (1, 3))
    cluster.engine.schedule(2.0, cluster.heal_partition)
    cluster.run()
    assert p.exit_status == "done", p.exit_value
    for txn in cluster.txn_registry.all():
        assert txn.state == TxnState.RESOLVED
    assert len(classified(cluster)) == 0


def test_partition_before_commit_classifies_as_rpc_timeout():
    """Split while the transaction is still talking to its storage
    sites: the RPC gives up, the transaction aborts, and the record
    says ``rpc_timeout`` -- not a bare unclassified corpse."""
    cluster = build(files=[("/db/a", 1, b"." * 256),
                           ("/db/b", 3, b"." * 256)])

    def writer(sys):
        yield from sys.begin_trans()
        fda = yield from sys.open("/db/a", write=True)
        yield from sys.write(fda, b"x" * 48)
        yield from sys.sleep(0.5)
        fdb = yield from sys.open("/db/b", write=True)
        yield from sys.write(fdb, b"y" * 32)
        yield from sys.end_trans()

    p = cluster.spawn(writer, site_id=2)
    cluster.engine.schedule(0.3, cluster.partition, (2,), (1, 3))
    cluster.run()
    assert p.failed
    prov = classified(cluster)
    assert len(prov) >= 1
    assert set(prov.cause_counts()) == {"rpc_timeout"}


# ----------------------------------------------------------------------
# retry chains
# ----------------------------------------------------------------------

def test_retry_chain_metrics_from_notes():
    cluster = build()
    obs = cluster.obs
    prov = obs.provenance
    # Chain A: two aborted attempts, then success.
    obs.event("chain.attempt", chain="A", tid=1)
    prov.record(1, "deadlock", reason="deadlock victim")
    obs.event("chain.attempt", chain="A", tid=2)
    prov.record(2, "lock_timeout", reason="lock wait timeout")
    obs.event("chain.attempt", chain="A", tid=3)
    obs.event("chain.commit", chain="A")
    # Chain B: first-try success.  Chain C: abandoned.
    obs.event("chain.attempt", chain="B", tid=4)
    obs.event("chain.commit", chain="B")
    obs.event("chain.attempt", chain="C", tid=5)
    prov.record(5, "rpc_timeout", reason="no reply from site 9")
    obs.event("chain.abandon", chain="C")

    stats = prov.retry_stats()
    # ``attempts`` counts attempts of *successful* chains (A: 3, B: 1);
    # the abandoned chain C shows up only in ``abandoned``.
    assert stats == {
        "successes": 2, "retried_successes": 1, "attempts": 4,
        "retries_per_success": 1.0, "max_chain": 3, "abandoned": 1,
    }
    # Chain/attempt stamped onto the abort records.
    assert prov.by_tid[1].chain == "A" and prov.by_tid[1].attempt == 0
    assert prov.by_tid[2].attempt == 1
    assert prov.by_tid[5].chain == "C"
    section = prov.section()
    assert section["total"] == 3
    assert sum(section["causes"].values()) == section["total"]
    assert section["storm"]["peak"] == 3  # all records in one instant


def test_scaling_driver_threads_retry_chains():
    """A contended single-site cell: the driver's retry loop feeds the
    hub, successes equal commits, and every abort is chained."""
    from repro.workloads import ScalingDriver

    cluster = build(site_ids=(1,),
                    config=SystemConfig(rpc_timeout=30.0,
                                        commit_batching=True))
    driver = ScalingDriver(cluster, record_count=48, mix="banking",
                           keys="zipf", theta=0.99, clients=12,
                           txns_per_client=2, arrival="closed",
                           think_mean=0.01, seed=3)
    driver.setup()
    result = driver.run()
    prov = classified(cluster)
    stats = prov.retry_stats()
    assert stats["successes"] == result.committed
    assert stats["attempts"] >= stats["successes"]
    # Every abort the driver retried is stamped with its chain.
    for rec in prov.records:
        assert rec.chain is not None
        assert rec.attempt is not None


# ----------------------------------------------------------------------
# waste ledger and hotness join the same records
# ----------------------------------------------------------------------

def test_waste_ledger_exact_sum_and_cause_join():
    from repro.obs.waste import waste_ledger

    cluster, _t1, _t2 = _deadlock_cluster()
    ledger = waste_ledger(cluster.obs)
    assert ledger["attempts"] == 1
    assert ledger["wasted_ns"] > 0
    # The schema's invariant, asserted at the source: exact integer sum.
    assert sum(ledger["categories"].values()) == ledger["wasted_ns"]
    assert sum(e["wasted_ns"] for e in ledger["by_cause"].values()) \
        == ledger["wasted_ns"]
    assert set(ledger["by_cause"]) == {"deadlock"}
    assert 0.0 < ledger["goodput_fraction"] < 1.0
    total = ledger["wasted_ns"] + ledger["committed_ns"]
    assert ledger["goodput_fraction"] == ledger["committed_ns"] / total


def test_hotness_blames_the_deadlock_closing_range():
    from repro.obs.critpath import BlameTable, hotness_view

    cluster, _t1, _t2 = _deadlock_cluster()
    section = hotness_view(BlameTable(cluster.obs))
    assert section["windows"] >= 1
    assert len(section["ranking"]) == section["windows"]
    rows = section["top"]
    assert rows, "contended run must surface hot keys"
    for row in rows:
        assert len(row["scores"]) == section["windows"]
    # The deadlock's closing contention range was blamed on some key.
    assert sum(row["aborts"] for row in rows) >= 1


# ----------------------------------------------------------------------
# trace export and the offline lint rules
# ----------------------------------------------------------------------

def test_exported_trace_carries_the_provenance_instant_and_lints_clean():
    from repro.obs.export import to_chrome_trace
    from repro.obs.lint import lint_trace_spans

    cluster, _t1, _t2 = _deadlock_cluster()
    doc = to_chrome_trace(cluster.obs.spans, now=cluster.engine.now)
    instants = [e for e in doc["traceEvents"]
                if e.get("name") == "abort.provenance"]
    assert len(instants) == 1
    args = instants[0]["args"]
    assert args["cause"] == "deadlock"
    assert "trace" in args
    assert lint_trace_spans(doc) == []

    # Stripping the instant out of the saved file is exactly what the
    # offline abort-no-provenance rule exists to catch.
    doc["traceEvents"] = [e for e in doc["traceEvents"]
                          if e.get("name") != "abort.provenance"]
    violations = lint_trace_spans(doc)
    assert any(v.rule == "abort-no-provenance" for v in violations)


def test_offline_lint_flags_dangling_trace_reference():
    from repro.obs.export import to_chrome_trace
    from repro.obs.lint import lint_trace_spans

    cluster, _t1, _t2 = _deadlock_cluster()
    doc = to_chrome_trace(cluster.obs.spans, now=cluster.engine.now)
    for event in doc["traceEvents"]:
        if event.get("name") == "abort.provenance":
            event["args"]["trace"] = 10 ** 9
    violations = lint_trace_spans(doc)
    assert any(v.rule == "provenance-dangling" for v in violations)
    # A sampled archive legitimately drops traces: the dangling rule
    # must stay quiet there.
    doc["sampling"] = {"head_rate": 0.01}
    assert not any(v.rule == "provenance-dangling"
                   for v in lint_trace_spans(doc))


# ----------------------------------------------------------------------
# stock scenarios: the global invariant
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", ["commit", "wal", "lockcache",
                                  "throughput"])
def test_stock_scenarios_every_abort_carries_exactly_one_cause(name):
    """Across the stock report scenarios (scaling's coverage lives in
    tests/analysis), provenance is attached, the lint rules pass, and
    aborted-vs-resolved bookkeeping is exact."""
    from repro.analysis.report import run_scenario

    cluster = run_scenario(name)
    assert cluster.obs.provenance is not None
    classified(cluster)
