"""Abort provenance: every abort carries exactly one cause.

The fault matrix from docs/OBSERVABILITY.md ("Abort provenance"): a
deadlock victim names its wait-for cycle and the closing range; a lock
wait that no cycle closes is granted, never aborted (section 3.1: a
queued request ends only by grant or cancellation); a coordinator crash
mid-batch, a dropped LEASE_RECALL, and a partition during phase two all
leave no abort unclassified (and fabricate no record for transactions
that survive).  The wasted-work ledger and windowed hotness ride on the
same records, with the exact integer category-sum invariant the schema
enforces.
"""

import pytest

from repro import Cluster, SystemConfig, drive
from repro.core.transaction import TxnState
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


def test_attach_provenance_documents_exactly_the_taxonomy():
    doc = " ".join(Observability.attach_provenance.__doc__.lower().split())
    for cause in CAUSES:
        assert cause.replace("_", " ") in doc
    # Lock waits end only by grant or cancellation: no timeout cause.
    assert "lock timeout" not in doc


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


def _deadlock_cluster():
    cluster = build(files=[("/x", 1, b"x" * 100), ("/y", 2, b"y" * 100)],
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
# a lock wait ends only by grant or cancellation
# ----------------------------------------------------------------------

def test_queued_waits_on_the_deadlock_workload_end_granted_or_cancelled():
    """The AB-BA workload queues two requests.  The detector cancels the
    victim's; the survivor's is granted once the victim's locks go.
    Every queued ``lock.wait`` span closes with one of those two
    statuses, and the wait that was cancelled belongs to the victim."""
    cluster, t1, t2 = _deadlock_cluster()
    assert t1.exit_status == "done" and t2.failed
    queued = [s for s in cluster.obs.spans.select(name="lock.wait")
              if s.attrs["blocked_by"]]
    assert len(queued) == 2
    assert all(not s.open for s in queued)
    assert sorted(s.status for s in queued) == ["cancelled", "granted"]
    victim, = cluster.obs.provenance.records
    cancelled, = [s for s in queued if s.status == "cancelled"]
    assert cancelled.attrs["holder"] == "txn:%s" % (victim.tid,)


def test_local_and_remote_waiters_are_granted_after_the_holder_commits():
    """One holder pins a range for 2 s; a same-site waiter (local lock
    path) and a cross-site waiter (remote LOCK_REQUEST path) queue
    behind it.  No cycle forms, so nothing cancels them: both are
    granted once the holder commits, both commit, and provenance has
    no abort to record."""
    cluster = build(files=[("/f", 1, b"." * 100)], site_ids=(1, 2))
    committed_at = {}
    granted_at = {}

    def holder(sys):
        yield from sys.begin_trans()
        fd = yield from sys.open("/f", write=True)
        yield from sys.lock(fd, 32)
        yield from sys.sleep(2.0)
        yield from sys.end_trans()
        committed_at["holder"] = sys.now
        return "committed"

    def waiter(name):
        def prog(sys):
            yield from sys.sleep(0.2)
            yield from sys.begin_trans()
            fd = yield from sys.open("/f", write=True)
            yield from sys.lock(fd, 32)
            granted_at[name] = sys.now
            yield from sys.end_trans()
            committed_at[name] = sys.now
            return "committed"
        return prog

    h = cluster.spawn(holder, site_id=1, name="holder")
    local = cluster.spawn(waiter("local"), site_id=1, name="local")
    remote = cluster.spawn(waiter("remote"), site_id=2, name="remote")
    cluster.run()

    for proc in (h, local, remote):
        assert proc.exit_status == "done"
        assert proc.exit_value == "committed"
    for name in ("local", "remote"):
        assert granted_at[name] >= committed_at["holder"]
        assert committed_at[name] > committed_at["holder"]
    prov = classified(cluster)
    assert len(prov) == 0
    assert all(txn.state == TxnState.RESOLVED
               for txn in cluster.txn_registry.all())


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


def _prepare_cluster(stores):
    """A writer at site 2 whose transaction writes one file at each of
    ``stores``, so its commit sends each of them a PREPARE."""
    cluster = build(files=[("/db/%d" % sid, sid, b"." * 256)
                           for sid in stores],
                    site_ids=sorted({2, *stores}))

    def writer(sys):
        yield from sys.begin_trans()
        for sid in stores:
            fd = yield from sys.open("/db/%d" % sid, write=True)
            yield from sys.write(fd, b"w" * 32)
        yield from sys.end_trans()

    return cluster, cluster.spawn(writer, site_id=2)


def _prepare_failure(cluster, participants):
    """The one abort, recorded by the prepare-failed announcement."""
    prov = classified(cluster)
    assert len(prov) == 1
    rec = prov.records[0]
    assert rec.detail == {"phase": "prepare", "participants": participants}
    assert rec.reason.startswith("prepare failed: ")
    assert rec.site == 2
    return rec


def test_an_unanswered_prepare_classifies_as_rpc_timeout():
    """Every PREPARE to site 3 is lost: the coordinator's call runs out
    its deadline, and the record says ``rpc_timeout``."""
    cluster, p = _prepare_cluster((1, 3))
    cluster.network.loss_filter = (
        lambda msg: msg.kind == MessageKinds.PREPARE and msg.dst == 3)
    cluster.run()
    assert p.failed
    rec = _prepare_failure(cluster, (1, 3))
    assert rec.cause == "rpc_timeout"
    assert "no reply from site 3" in rec.reason


def test_a_prepare_whose_participant_crashed_classifies_as_crash():
    """Site 3 crashes with the PREPARE on the wire.  The topology change
    interrupts the coordinator's wait long before its deadline; the
    coordinator announces the failed prepare after one log write, while
    the topology handler is still rolling back sites 1 and 4 one round
    trip at a time, so the record says ``crash``."""
    cluster, p = _prepare_cluster((1, 3, 4))
    crashed = []

    def crash_on_prepare(msg):
        if msg.kind == MessageKinds.PREPARE and msg.dst == 3 and not crashed:
            crashed.append(cluster.engine.now)
            cluster.engine.schedule(0.001, cluster.crash_site, 3)
        return False

    cluster.network.loss_filter = crash_on_prepare
    cluster.run()
    assert p.failed and crashed
    rec = _prepare_failure(cluster, (1, 3, 4))
    assert rec.cause == "crash"
    assert "topology change: lost [3]" in rec.reason
    assert rec.time < crashed[0] + cluster.config.rpc_timeout


def _fault_during_prepare(stores, fault):
    """The writer's commit with ``fault(cluster)`` applied 1 ms after
    the PREPARE to site 3 leaves; returns its one abort record."""
    cluster, p = _prepare_cluster(stores)
    fired = []

    def on_prepare(msg):
        if msg.kind == MessageKinds.PREPARE and msg.dst == 3 and not fired:
            fired.append(cluster.engine.now)
            cluster.engine.schedule(0.001, fault, cluster)
        return False

    cluster.network.loss_filter = on_prepare
    cluster.run()
    assert p.failed and fired
    prov = classified(cluster)
    assert len(prov) == 1
    return prov.records[0]


@pytest.mark.parametrize("stores", [(1, 3), (1, 3, 4)],
                         ids=["3-storage-sites", "4-storage-sites"])
def test_one_participant_crash_is_one_cause_whichever_announcement_wins(
        stores):
    """Site 3 crashes with the PREPARE on the wire.  With storage sites
    1 and 3 the topology handler's rollback finishes first and the
    ``txn.state`` backstop classifies the abort; with 1, 3 and 4 the
    coordinator's ``2pc.prepare_failed`` comes first.  Either way the
    crashed participant makes it a crash."""
    rec = _fault_during_prepare(stores, lambda c: c.crash_site(3))
    assert rec.cause == "crash"
    assert "topology change: lost [3]" in rec.reason
    # Which announcement recorded it differs; the cause does not.
    assert (rec.detail == {}) == (stores == (1, 3))


@pytest.mark.parametrize("stores", [(1, 3), (1, 3, 4)],
                         ids=["3-storage-sites", "4-storage-sites"])
def test_a_partition_during_prepare_stays_an_rpc_timeout(stores):
    """The same instant, but site 3 is cut off rather than crashed:
    every site stays up, so the lost connection is an RPC timeout."""
    rec = _fault_during_prepare(
        stores, lambda c: c.partition(tuple(s for s in c.sites if s != 3),
                                      (3,)))
    assert rec.cause == "rpc_timeout"
    assert "topology change: lost [3]" in rec.reason


def test_a_rebooted_site_is_no_longer_down():
    """The crash rule looks at the sites down now: after a reboot a
    lost connection is an RPC timeout again."""
    cluster = build()
    prov = cluster.obs.provenance
    cluster.crash_site(3)
    assert prov._down == {3}
    cluster.restart_site(3, recover=False)
    assert prov._down == set()


# ----------------------------------------------------------------------
# retry chains
# ----------------------------------------------------------------------

def test_retry_chain_metrics_from_notes():
    cluster = build()
    obs = cluster.obs
    prov = obs.provenance
    # Chain A: two aborted attempts, then success.
    obs.event("chain.attempt", None, "A", 1)
    prov.record(1, "deadlock", reason="deadlock victim")
    obs.event("chain.attempt", None, "A", 2)
    prov.record(2, "explicit", reason="AbortTrans")
    obs.event("chain.attempt", None, "A", 3)
    obs.event("chain.commit", None, "A")
    # Chain B: first-try success.  Chain C: abandoned.
    obs.event("chain.attempt", None, "B", 4)
    obs.event("chain.commit", None, "B")
    obs.event("chain.attempt", None, "C", 5)
    prov.record(5, "rpc_timeout", reason="no reply from site 9")
    obs.event("chain.abandon", None, "C")

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
# trace export and the live lint rules
# ----------------------------------------------------------------------

def test_exported_trace_carries_the_provenance_instant_and_lints_clean():
    from repro.obs.export import to_chrome_trace
    from repro.obs.lint import lint_spans

    cluster, _t1, _t2 = _deadlock_cluster()
    doc = to_chrome_trace(cluster.obs.spans, now=cluster.engine.now)
    instants = [e for e in doc["traceEvents"]
                if e.get("name") == "abort.provenance"]
    assert len(instants) == 1
    args = instants[0]["args"]
    assert args["cause"] == "deadlock"
    assert "trace" in args
    assert lint_spans(cluster.obs.spans) + lint_provenance(cluster.obs) == []

    # An aborted txn root whose record is gone is exactly what the
    # abort-no-provenance rule exists to catch.
    prov = cluster.obs.provenance
    (tid,) = prov.by_tid
    del prov.by_tid[tid]
    violations = lint_provenance(cluster.obs)
    assert [v.rule for v in violations] == ["abort-no-provenance"]


def test_lint_flags_dangling_trace_reference():
    cluster, _t1, _t2 = _deadlock_cluster()
    (rec,) = cluster.obs.provenance.records
    rec.trace_id = 10 ** 9
    violations = lint_provenance(cluster.obs)
    assert [v.rule for v in violations] == ["provenance-dangling"]


def test_capacity_bound_run_keeps_the_dangling_rule_quiet():
    """A recorder that keeps only the setup spans drops the deadlock's
    traces while the provenance record still names one; an archive that
    hit its capacity legitimately lacks traces, so the reference is not
    reported as dangling."""
    from repro.obs.lint import lint_spans

    cluster = build(files=[("/x", 1, b"x" * 100), ("/y", 2, b"y" * 100)],
                    site_ids=(1, 2))
    recorder = cluster.obs.spans
    recorder.capacity = len(recorder.spans)
    cluster.spawn(_abba("/x", "/y", 0.0), site_id=1, name="t1")
    cluster.spawn(_abba("/y", "/x", 0.1), site_id=2, name="t2")
    cluster.run()
    assert recorder.dropped > 0
    known = set(recorder.trace_ids())
    assert any(rec.trace_id is not None and rec.trace_id not in known
               for rec in cluster.obs.provenance.records)
    assert lint_spans(recorder) + lint_provenance(cluster.obs) == []


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
