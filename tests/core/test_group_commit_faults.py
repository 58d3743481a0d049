"""Fault injection against the commit-batching path (docs/COMMIT_BATCHING.md).

Batching changes the I/O and message schedule of commit, so the fault
coverage has to show it never changes the *outcome*: a coordinator
crash mid-batch still yields atomic, durable transactions after
recovery; a read-only participant's elided prepare leaves nothing to
clean up; and a lost coalesced phase-2 message is retried idempotently.
"""

import pytest

from repro import Cluster, SystemConfig, drive
from repro.core.transaction import TxnState
from repro.net import MessageKinds


def build(config=None, files=()):
    cluster = Cluster(site_ids=(1, 2, 3),
                      config=config or SystemConfig(commit_batching=True))
    cluster.enable_observability()
    for path, site_id, contents in files:
        drive(cluster.engine, cluster.create_file(path, site_id=site_id))
        if contents:
            drive(cluster.engine, cluster.populate(path, contents))
    return cluster


def transfer(sys, offset, marker, paths=("/gc/f2", "/gc/f3"), delay=0.0):
    """One distributed transaction writing ``marker`` at ``offset`` in
    every path -- afterwards each file holds the marker or none does."""
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


def test_coordinator_crash_mid_batch_recovers_atomically():
    """Crash the coordinator while a batch of commits is in flight:
    after reboot + recovery every transaction is atomic (marker in both
    files or neither), committed work is durable, and both the
    coordinator log and all prepare logs are scrubbed."""
    n_txns = 4
    size = 16 * n_txns
    cluster = build(files=[("/gc/f2", 2, b"." * size),
                           ("/gc/f3", 3, b"." * size)])
    for i in range(n_txns):
        cluster.spawn(transfer, i * 16, b"T%d" % i + b"!" * 14,
                      ("/gc/f2", "/gc/f3"), 0.002 * i,
                      site_id=1, name="txn%d" % i)
    # Uninterrupted, these transactions reach their commit points
    # between ~0.45 s and ~0.74 s; crashing at 0.60 s lands after the
    # first batch's commit record is forced but with phase 2 (and later
    # transactions' prepares) still in flight.
    cluster.engine.schedule(0.60, cluster.crash_site, 1)
    cluster.run()

    cluster.restart_site(1, recover=True)
    cluster.run()

    f2 = drive(cluster.engine, cluster.committed_bytes("/gc/f2", 0, size))
    f3 = drive(cluster.engine, cluster.committed_bytes("/gc/f3", 0, size))
    committed = []
    for i in range(n_txns):
        marker = b"T%d" % i + b"!" * 14
        span = slice(i * 16, i * 16 + 16)
        in_f2, in_f3 = f2[span] == marker, f3[span] == marker
        # Atomicity: a transaction's writes land everywhere or nowhere.
        assert in_f2 == in_f3, "txn %d committed at one site only" % i
        if in_f2:
            committed.append(i)
        else:
            assert f2[span] == f3[span] == b"." * 16
    # The crash hit mid-stream: the batch before the crash is durable.
    assert committed, "crash landed before any commit; retune crash time"

    # Clean recovery: nothing left to redo anywhere.
    assert len(cluster.site(1).coordinator_log) == 0
    for site_id in (2, 3):
        site = cluster.site(site_id)
        for vol_id in site.volumes:
            assert len(site.prepare_log(vol_id)) == 0
    for txn in cluster.txn_registry.all():
        assert txn.state in (TxnState.RESOLVED, TxnState.ABORTED)


@pytest.mark.parametrize("protocol", ["flat", "tree"])
def test_read_only_participant_elides_prepare_and_phase_two(protocol):
    """A participant that shared-locked and read but wrote nothing
    votes READ_ONLY: its disk sees no log force, its locks are released
    at prepare time, and phase 2 never messages it -- under either
    commit topology."""
    cluster = build(config=SystemConfig(commit_batching=True,
                                        commit_protocol=protocol),
                    files=[("/gc/f2", 2, b"." * 64),
                           ("/gc/rates", 3, b"r" * 64)])
    phase2_to_3 = []
    cluster.network.loss_filter = lambda m: (
        phase2_to_3.append(m)
        if m.dst == 3 and m.kind in (MessageKinds.COMMIT,
                                     MessageKinds.COMMIT_BATCH)
        else None
    )

    def txn(sys):
        yield from sys.begin_trans()
        fd = yield from sys.open("/gc/f2", write=True)
        yield from sys.lock(fd, 16)
        yield from sys.write(fd, b"w" * 16)
        # Write-mode open permits locking; the transaction only reads,
        # so site 3 has nothing to prepare.
        fdr = yield from sys.open("/gc/rates", write=True)
        yield from sys.lock(fdr, 8, mode="shared")
        yield from sys.read(fdr, 8)
        yield from sys.end_trans()

    rates_vol = cluster.namespace.lookup("/gc/rates").primary.vol_id
    site3 = cluster.site(3)
    log_writes_before = site3.volumes[rates_vol].stats.total("io.write.log")

    proc = cluster.spawn(txn, site_id=1)
    cluster.run()
    assert proc.exit_status == "done", proc.exit_value

    # No prepare force ever hit site 3's disk...
    assert site3.volumes[rates_vol].stats.total("io.write.log") \
        == log_writes_before
    assert len(site3.prepare_log(rates_vol)) == 0
    # ...the elision was counted...
    counters = cluster.obs.metrics.counters_by_site()
    assert counters.get("3", {}).get("commit.ro_skips", 0) >= 1
    # ...phase 2 skipped the site entirely...
    assert phase2_to_3 == []
    # ...and its locks were released at prepare time: a later exclusive
    # lock on the same range is granted without waiting.
    def relock(sys):
        yield from sys.begin_trans()
        fd = yield from sys.open("/gc/rates", write=True)
        yield from sys.lock(fd, 8)
        yield from sys.end_trans()

    p2 = cluster.spawn(relock, site_id=2)
    cluster.run()
    assert p2.exit_status == "done", p2.exit_value
    assert drive(cluster.engine,
                 cluster.committed_bytes("/gc/f2", 0, 16)) == b"w" * 16


def test_dropped_commit_batch_is_retried_idempotently():
    """Drop the first coalesced phase-2 message: the RPC layer's
    idempotent retry resends it, every transaction still resolves, and
    the data is applied exactly once."""
    n_txns = 3
    size = 16 * n_txns
    cluster = build(files=[("/gc/f2", 2, b"." * size),
                           ("/gc/f3", 3, b"." * size)])
    dropped = []

    def loss(message):
        if message.kind == MessageKinds.COMMIT_BATCH and not dropped:
            dropped.append(message)
            return True
        return False

    cluster.network.loss_filter = loss
    procs = [
        cluster.spawn(transfer, i * 16, b"T%d" % i + b"!" * 14,
                      ("/gc/f2", "/gc/f3"), 0.002 * i,
                      site_id=1, name="txn%d" % i)
        for i in range(n_txns)
    ]
    cluster.run()

    assert len(dropped) == 1
    assert cluster.network.stats.get("net.dropped") >= 1
    for proc in procs:
        assert proc.exit_status == "done", proc.exit_value
    for txn in cluster.txn_registry.all():
        assert txn.state == TxnState.RESOLVED
    f2 = drive(cluster.engine, cluster.committed_bytes("/gc/f2", 0, size))
    f3 = drive(cluster.engine, cluster.committed_bytes("/gc/f3", 0, size))
    for i in range(n_txns):
        marker = b"T%d" % i + b"!" * 14
        assert f2[i * 16:(i + 1) * 16] == marker
        assert f3[i * 16:(i + 1) * 16] == marker
