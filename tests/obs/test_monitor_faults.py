"""Fault injection with the protocol monitors watching.

The monitors model crash and partition *legality* -- site.crash,
site.recover, net.partition and net.heal events reset per-site
expectations and waive 2PC delivery liveness for separated pairs -- so
every correct fault-handling path must complete with zero violations.
These tests pin that: a coordinator crash mid-batch, a dropped lease
recall, and a partition during phase two all stay green end to end.
"""

import pytest

from repro import Cluster, SystemConfig, drive
from repro.core.transaction import TxnState
from repro.net import MessageKinds


def build(config=None, files=(), strict=False):
    cluster = Cluster(site_ids=(1, 2, 3), config=config)
    cluster.enable_observability(monitors=True, strict=strict,
                                 timeline_tick=0.25)
    for path, site_id, contents in files:
        drive(cluster.engine, cluster.create_file(path, site_id=site_id))
        if contents:
            drive(cluster.engine, cluster.populate(path, contents))
    return cluster


def transfer(sys, offset, marker, paths, delay=0.0):
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


def green(cluster):
    hub = cluster.obs.finish_monitors()
    assert hub.events_seen > 0
    assert hub.total_violations == 0, hub.section()["violations"]
    return hub


def test_coordinator_crash_mid_batch_stays_green():
    """The group-commit crash scenario (tests/core/test_group_commit_faults)
    under full monitoring: crash, reboot, recovery -- zero violations,
    including the post-run liveness pass (crash legality waives the
    in-flight deliveries; recovery finishes the rest)."""
    n_txns = 4
    size = 16 * n_txns
    cluster = build(config=SystemConfig(commit_batching=True),
                    files=[("/gc/f2", 2, b"." * size),
                           ("/gc/f3", 3, b"." * size)])
    for i in range(n_txns):
        cluster.spawn(transfer, i * 16, b"T%d" % i + b"!" * 14,
                      ("/gc/f2", "/gc/f3"), 0.002 * i,
                      site_id=1, name="txn%d" % i)
    cluster.engine.schedule(0.60, cluster.crash_site, 1)
    cluster.run()
    cluster.restart_site(1, recover=True)
    cluster.run()

    for txn in cluster.txn_registry.all():
        assert txn.state in (TxnState.RESOLVED, TxnState.ABORTED)
    hub = green(cluster)
    # The crash itself was observed (it is what waives the liveness
    # obligations for deliveries that were in flight).
    assert 1 in hub.monitors[0].crashed


def test_dropped_lease_recall_is_retried_and_stays_green():
    """The first LEASE_RECALL is lost; the idempotent RPC retry resends
    it, the lease is surrendered late, and every lease/lock check stays
    green throughout."""
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
    assert p1.exit_status == "done", p1.exit_value
    assert p2.exit_status == "done", p2.exit_value
    assert len(dropped) == 1
    green(cluster)


def test_partition_during_phase_two_heals_and_stays_green():
    """The network splits right after the commit point, cutting the
    coordinator off from both participants mid-phase-2.  The retry loop
    re-delivers after the heal; every transaction resolves; and the
    liveness pass finds nothing (deliveries happened) while the
    partition legality model absorbed the separation."""
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
    # The commit point lands at ~0.505 s and the phase-2 applies at
    # ~0.51-0.60 s (probed): split just after the decision, heal later.
    cluster.engine.schedule(0.508, cluster.partition, (2,), (1, 3))
    cluster.engine.schedule(2.0, cluster.heal_partition)
    cluster.run()
    assert p.exit_status == "done", p.exit_value
    assert p.exit_value == pytest.approx(0.5046808)  # commit point held
    for txn in cluster.txn_registry.all():
        assert txn.state == TxnState.RESOLVED  # phase 2 finished post-heal
    hub = green(cluster)
    assert frozenset((1, 2)) in hub.monitors[0].separated


def test_unhealed_partition_waives_liveness():
    """Same split, never healed: phase 2 exhausts its retry rounds and
    the YES voters never hear the decision -- but the separation is
    *legal*, so the liveness pass stays silent (the complement of
    test_monitor.py's lost-decision mutation, which has no partition to
    hide behind)."""
    cluster = build(files=[("/db/a", 1, b"." * 256),
                           ("/db/b", 3, b"." * 256)])

    def writer(sys):
        yield from sys.begin_trans()
        fda = yield from sys.open("/db/a", write=True)
        yield from sys.write(fda, b"x" * 48)
        fdb = yield from sys.open("/db/b", write=True)
        yield from sys.write(fdb, b"y" * 32)
        yield from sys.end_trans()

    p = cluster.spawn(writer, site_id=2)
    cluster.engine.schedule(0.508, cluster.partition, (2,), (1, 3))
    cluster.run()
    assert p.exit_status == "done", p.exit_value  # commit point was reached
    hub = green(cluster)
    assert hub.violation_counts.get("2pc.lost_decision", 0) == 0


def test_stock_scenarios_run_clean_under_strict_monitors():
    """Every report scenario completes with strict monitors raising at
    the first violation -- the acceptance bar for the whole layer."""
    from repro.analysis.report import SCENARIOS, run_scenario

    assert set(SCENARIOS) == {"commit", "wal", "lockcache", "throughput",
                              "scaling"}
    # The scaling scenario's reference column takes minutes; its strict
    # -monitor coverage lives in tests/analysis/test_scaling.py and the
    # scaling-smoke CI job.
    for name in sorted(set(SCENARIOS) - {"scaling"}):
        cluster = run_scenario(name)   # strict=True is the default
        hub = cluster.obs.finish_monitors()
        assert hub.strict
        assert hub.events_seen > 0
        assert hub.total_violations == 0
        assert cluster.obs.timeline is not None
        assert cluster.obs.timeline.points > 0


# ----------------------------------------------------------------------
# handlers only a crash or a topology change reaches
# ----------------------------------------------------------------------

def test_wal_recovery_rebuilds_the_monitor_s_model(eng, cost):
    """A WAL crashes after a commit and a fresh one replays the log.
    ``wal.recover`` rebuilds the no-steal model for the fresh file from
    the replayed records, so a later abort over the recovered bytes is
    checked against them: clean, it stays green; with the recovered
    bytes lost from disk underneath it, the strict monitor raises."""
    from repro.obs import Observability
    from repro.obs.monitor import MonitorViolation, WalMonitor
    from repro.storage import Volume, WalFile

    obs = Observability(eng).install()
    hub = obs.attach_monitors(strict=True)
    vol = Volume(eng, cost, vol_id=1)
    ino = drive(eng, vol.create_file())
    wal = WalFile(eng, cost, vol, ino)
    owner_a, owner_b = ("txn", "a"), ("txn", "b")

    def commit_a():
        yield from wal.write(owner_a, 0, b"A" * 64)
        yield from wal.commit(owner_a)

    drive(eng, commit_a())
    vol.cache.clear()                       # the crash: in-core state dies
    fresh = WalFile(eng, cost, vol, ino, log=wal.log)
    assert drive(eng, fresh.recover()) == 1
    model = next(m for m in hub.monitors if isinstance(m, WalMonitor))
    assert model.models[id(fresh)]["pages"][0] == dict.fromkeys(
        range(64), ord("A"))

    def abort_b():
        yield from fresh.write(owner_b, 0, b"B" * 64)
        yield from fresh.abort(owner_b)

    drive(eng, abort_b())                   # restores the A bytes: green
    assert hub.total_violations == 0
    block = vol.inode(ino).block_for(0)
    vol.disk._blocks[block] = bytes(cost.page_size)   # recovered bytes lost
    vol.cache.clear()
    with pytest.raises(MonitorViolation) as info:
        drive(eng, abort_b())
    assert info.value.check == "wal.committed_regressed"
    assert [ev.kind for ev in info.value.events] == ["wal.recover",
                                                     "wal.abort"]


def test_a_lease_dropped_at_a_partition_leaves_the_lease_monitor(eng):
    """Site 2 earns a lease on a file stored at site 1; a partition
    cuts it off, so site 2 drops the lease (``lease.drop``).  The strict
    lease monitor forgets the lease and its mirrored locks, stays green
    through the partition and the heal, and tracks the lease site 2
    earns again afterwards."""
    from repro.obs.monitor import LeaseMonitor

    cluster = Cluster(site_ids=(1, 2), config=SystemConfig(lock_cache=True))
    cluster.enable_observability(monitors=True, strict=True)
    drive(cluster.engine, cluster.create_file("/f", site_id=1))
    drive(cluster.engine, cluster.populate("/f", b"." * 20000))
    file_id = cluster.namespace.lookup("/f").primary.file_id
    monitor = next(m for m in cluster.obs.monitors.monitors
                   if isinstance(m, LeaseMonitor))

    def prog(sys):
        yield from sys.begin_trans()
        fd = yield from sys.open("/f", write=True)
        yield from sys.lock(fd, 50)
        yield from sys.write(fd, b"w" * 50)
        yield from sys.end_trans()

    cluster.spawn(prog, site_id=2)
    cluster.run()
    assert (file_id, 2) in monitor.leases
    assert (file_id, 2) in monitor.mirrored
    cluster.partition((1,), (2,))
    cluster.run()
    assert (file_id, 2) not in monitor.leases
    assert (file_id, 2) not in monitor.mirrored
    cluster.heal_partition()
    cluster.engine.schedule(1.0, lambda: None)   # the old lease expires
    cluster.run()
    cluster.spawn(prog, site_id=2)
    cluster.run()
    assert (file_id, 2) in monitor.leases
    green(cluster)
