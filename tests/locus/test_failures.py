"""Failures and recovery: site crashes, partitions, and the section 4.4
reboot-time recovery machinery.  Every test runs under the strict
dead-site check: no process of a crashed site resumes."""

import pytest

from repro import Cluster, drive
from repro.core import TxnState
from tests.deadsite import dead_site_check


@pytest.fixture
def cluster():
    c = Cluster(site_ids=(1, 2, 3))
    with dead_site_check(c):
        drive(c.engine, c.create_file("/a", site_id=1))
        drive(c.engine, c.create_file("/b", site_id=2))
        drive(c.engine, c.populate("/a", b"A" * 100))
        drive(c.engine, c.populate("/b", b"B" * 100))
        yield c


def committed(cluster, path, start, n):
    return drive(cluster.engine, cluster.committed_bytes(path, start, n))


def slow_two_site_txn(sys, hold=5.0):
    yield from sys.begin_trans()
    fa = yield from sys.open("/a", write=True)
    fb = yield from sys.open("/b", write=True)
    yield from sys.write(fa, b"X" * 10)
    yield from sys.write(fb, b"Y" * 10)
    yield from sys.sleep(hold)
    yield from sys.end_trans()


def test_participant_crash_before_prepare_aborts_txn(cluster):
    p = cluster.spawn(slow_two_site_txn, site_id=3)
    cluster.engine.schedule(1.0, cluster.crash_site, 2)
    cluster.run()
    assert p.failed
    txn = cluster.txn_registry.all()[0]
    assert txn.state == TxnState.ABORTED
    assert committed(cluster, "/a", 0, 10) == b"A" * 10
    # Surviving site 1 holds no residue for the transaction.
    site1 = cluster.site(1)
    assert all(s.is_idle() for s in site1.update_states.values())


def test_crash_of_top_level_site_aborts_txn(cluster):
    p = cluster.spawn(slow_two_site_txn, site_id=3)
    cluster.engine.schedule(1.0, cluster.crash_site, 3)
    cluster.run()
    assert p.exit_status == "killed" or p.failed
    txn = cluster.txn_registry.all()[0]
    assert txn.state == TxnState.ABORTED
    assert committed(cluster, "/a", 0, 10) == b"A" * 10
    assert committed(cluster, "/b", 0, 10) == b"B" * 10
    # Locks at the surviving storage sites were released.
    for sid in (1, 2):
        mgr = cluster.site(sid).lock_manager
        assert mgr.waiting_holders() == []


def test_partition_aborts_spanning_txn(cluster):
    p = cluster.spawn(slow_two_site_txn, site_id=3)
    cluster.engine.schedule(1.0, cluster.partition, [1, 3], [2])
    cluster.run()
    assert p.failed
    assert cluster.txn_registry.all()[0].state == TxnState.ABORTED
    assert committed(cluster, "/a", 0, 10) == b"A" * 10


def test_crash_without_transactions_is_recoverable(cluster):
    cluster.crash_site(1)
    cluster.restart_site(1)
    cluster.run()

    def prog(sys):
        fd = yield from sys.open("/a")
        return (yield from sys.read(fd, 10))

    p = cluster.spawn(prog, site_id=1)
    cluster.run()
    assert p.exit_value == b"A" * 10


def test_uncommitted_data_lost_in_crash(cluster):
    """In-core working data dies with the site; committed data survives."""

    def writer(sys):
        fd = yield from sys.open("/a", write=True)
        yield from sys.write(fd, b"uncommitted")
        yield from sys.sleep(100.0)  # never commits

    cluster.spawn(writer, site_id=1)
    cluster.engine.schedule(1.0, cluster.crash_site, 1)
    cluster.run()
    cluster.restart_site(1)
    cluster.run()
    assert committed(cluster, "/a", 0, 10) == b"A" * 10


def test_participant_crash_after_prepare_recovers_commit(cluster):
    """The in-doubt case: participant prepared, crashed before the
    commit message arrived.  On reboot it queries the coordinator
    (section 4.4) and completes the commit from its prepare log."""
    blocked = {"release": cluster.engine.event()}

    def txn(sys):
        yield from sys.begin_trans()
        fb = yield from sys.open("/b", write=True)
        yield from sys.write(fb, b"PREPARED!!")
        yield from sys.end_trans()

    p = cluster.spawn(txn, site_id=1)

    # Crash site 2 the instant it finishes preparing (prepare log written,
    # commit message not yet processed).  We watch the prepared table.
    def crash_when_prepared():
        site2 = cluster.site(2)
        while not site2.prepared:
            yield cluster.engine.timeout(0.001)
        cluster.crash_site(2)
        blocked["release"].succeed()

    cluster.engine.process(crash_when_prepared())
    cluster.run()
    # The commit point may or may not have been reached before the crash
    # was detected; this test targets the committed case.
    txn_rec = cluster.txn_registry.all()[0]
    if txn_rec.state in (TxnState.COMMITTED,):
        # Participant recovery must finish the job.
        cluster.restart_site(2)
        cluster.run()
        assert committed(cluster, "/b", 0, 10) == b"PREPARED!!"
        assert txn_rec.state in (TxnState.COMMITTED, TxnState.RESOLVED)
        assert len(cluster.site(2).prepare_log("2:root")) == 0
    else:
        # Crash won the race: the transaction aborted cleanly instead.
        cluster.restart_site(2)
        cluster.run()
        assert committed(cluster, "/b", 0, 10) == b"B" * 10


def test_coordinator_crash_after_commit_point_recovers(cluster):
    """Coordinator crashes right after writing the commit mark; on
    reboot its recovery re-runs phase two from the coordinator log."""

    def txn(sys):
        yield from sys.begin_trans()
        fa = yield from sys.open("/a", write=True)
        fb = yield from sys.open("/b", write=True)
        yield from sys.write(fa, b"CMT-A.....")
        yield from sys.write(fb, b"CMT-B.....")
        yield from sys.end_trans()
        # Crash immediately after the commit point, before phase two
        # has a chance to run (it is asynchronous).
        cluster.crash_site(sys.site_id)
        yield from sys.sleep(10.0)  # never reached

    cluster.spawn(txn, site_id=3)
    cluster.run()
    txn_rec = cluster.txn_registry.all()[0]
    assert txn_rec.state in (TxnState.COMMITTED, TxnState.RESOLVED)
    # Phase two could not finish for at least the coordinator's own
    # bookkeeping; restart and let recovery drive it to resolution.
    cluster.restart_site(3)
    cluster.run()
    assert committed(cluster, "/a", 0, 10) == b"CMT-A....."
    assert committed(cluster, "/b", 0, 10) == b"CMT-B....."
    assert txn_rec.state == TxnState.RESOLVED
    assert len(cluster.site(3).coordinator_log) == 0


def test_phase_two_retries_through_transient_outage(cluster):
    """A participant that is briefly down when the commit message is
    sent still commits: phase two retries until it answers."""

    def txn(sys):
        yield from sys.begin_trans()
        fb = yield from sys.open("/b", write=True)
        yield from sys.write(fb, b"RETRY-ME!!")
        yield from sys.end_trans()

    p = cluster.spawn(txn, site_id=1)

    def bounce_site2():
        site2 = cluster.site(2)
        while not site2.prepared:
            yield cluster.engine.timeout(0.001)
        # Prepared: now crash through the commit-message window, then
        # come back (recovery will also query the coordinator).
        cluster.crash_site(2)
        yield cluster.engine.timeout(1.0)
        cluster.restart_site(2)

    cluster.engine.process(bounce_site2())
    cluster.run()
    txn_rec = cluster.txn_registry.all()[0]
    if txn_rec.state in (TxnState.COMMITTED, TxnState.RESOLVED):
        assert committed(cluster, "/b", 0, 10) == b"RETRY-ME!!"
        assert txn_rec.state == TxnState.RESOLVED
    else:
        assert committed(cluster, "/b", 0, 10) == b"B" * 10


def test_duplicate_commit_messages_are_harmless(cluster):
    """Section 4.4: recovery may resend commit messages; temporally
    unique tids + idempotent processing keep this safe."""

    def txn(sys):
        yield from sys.begin_trans()
        fb = yield from sys.open("/b", write=True)
        yield from sys.write(fb, b"ONCE-ONLY!")
        yield from sys.end_trans()

    cluster.spawn(txn, site_id=1)
    cluster.run()
    txn_rec = cluster.txn_registry.all()[0]
    # Manually resend the commit message, twice.
    from repro.core.twophase import commit_participant

    for _ in range(2):
        drive(cluster.engine, commit_participant(cluster.site(2), txn_rec.tid))
    assert committed(cluster, "/b", 0, 10) == b"ONCE-ONLY!"


def test_recovery_aborts_undecided_coordinator_entries(cluster):
    """A coordinator log whose status never reached 'committed' is
    queued for abort processing at reboot (section 4.4)."""
    site1 = cluster.site(1)
    fake_tid = ("fake-tid",)
    ino = cluster.namespace.lookup("/a").primary.ino
    drive(
        cluster.engine,
        site1.coordinator_log.append(
            {
                "type": "txn",
                "tid": fake_tid,
                "files": [("1:root", ino, 1)],
                "status": "unknown",
            }
        ),
    )
    cluster.crash_site(1)
    cluster.restart_site(1)
    cluster.run()
    assert len(site1.coordinator_log) == 0  # scrubbed by abort processing


def test_commit_failure_detaches_process_for_clean_retry(cluster):
    """A prepare failure raises TransactionAborted out of EndTrans; the
    calling process must leave the dead transaction on that path too,
    so a retrying client's next BeginTrans starts a fresh top-level
    transaction instead of nesting into the aborted one (the scaling
    driver's retry loop leans on this)."""
    from repro.locus import TransactionAborted

    def client(sysc):
        yield from sysc.begin_trans()
        fa = yield from sysc.open("/a", write=True)
        fb = yield from sysc.open("/b", write=True)
        yield from sysc.write(fa, b"X" * 10)
        yield from sysc.write(fb, b"Y" * 10)
        cluster.crash_site(2)  # participant dies: prepare will fail
        try:
            yield from sysc.end_trans()
        except TransactionAborted:
            pass
        else:
            raise AssertionError("commit with a dead participant "
                                 "should abort")
        # Retry against the surviving site only: must be a fresh
        # top-level transaction, and must durably commit.
        yield from sysc.begin_trans()
        fa2 = yield from sysc.open("/a", write=True)
        yield from sysc.seek(fa2, 50)
        yield from sysc.write(fa2, b"Z" * 10)
        yield from sysc.end_trans()
        return "recovered"

    p = cluster.spawn(client, site_id=1)
    cluster.run()
    assert p.exit_status == "done"
    assert p.exit_value == "recovered"
    # Two distinct transactions: the aborted original and the retry
    # (committed, possibly already resolved by background cleanup).
    states = sorted(str(t.state) for t in cluster.txn_registry.all())
    assert len(states) == 2
    assert str(TxnState.ABORTED) in states
    retry_state = [s for s in states if s != str(TxnState.ABORTED)]
    assert retry_state[0] in (str(TxnState.COMMITTED), str(TxnState.RESOLVED))
    assert committed(cluster, "/a", 50, 10) == b"Z" * 10


def test_crash_with_queued_disk_writers_then_reboot_serves_new_writes():
    """Site.crash kills a site's processes where they wait.  Four local
    committers are parked on site 1's disk arm (one in service, three
    queued) when it crashes; after the reboot, recovery completes and a
    new write is served at once -- the arm is neither held by the dead
    nor still working through their requests."""
    c = Cluster(site_ids=(1, 2))
    c.enable_observability(timeline_tick=0.25)
    with dead_site_check(c):
        _queued_writers_then_reboot(c)


def _queued_writers_then_reboot(c):
    paths = ["/w%d" % i for i in range(4)]
    for path in paths:
        drive(c.engine, c.create_file(path, site_id=1))
    io = c.cost.disk_io_time
    disk = c.site(1).root_volume.disk

    def committer(sys, path):
        fd = yield from sys.open(path, write=True)
        yield from sys.write(fd, b"doomed")
        yield from sys.close(fd)

    procs = [c.spawn(committer, path, site_id=1) for path in paths]

    def depth():
        return c.obs.timeline.gauge_value(1, "disk.qdepth")

    while depth() < 4.0:
        assert c.engine.step()
    c.run(until=c.engine.now + io / 2)
    assert depth() == 4.0
    c.crash_site(1)
    c.run(until=c.engine.now + 0.1)
    assert all(p.exit_status == "killed" or p.failed for p in procs)

    recovery = c.restart_site(1)
    rebooted = c.engine.now

    def late():
        yield from disk.write_block(4242, b"after reboot")
        return c.engine.now

    writer = c.engine.process(late())
    c.run()
    assert recovery.state == "done"
    assert writer.state == "done" and writer.value == rebooted + io
    assert disk.peek(4242) == b"after reboot"
    for path in paths:
        assert drive(c.engine, c.committed_bytes(path, 0, 6)) == b""


def test_a_crash_kills_every_process_the_site_owns_in_start_order(cluster):
    """``Site.process`` is the one way to start a process on a site; a
    crash kills every one still running, oldest first, and a finished
    one is no longer the site's."""
    site, engine = cluster.site(1), cluster.engine
    ended = []

    def worker(name, hold):
        try:
            yield engine.timeout(hold)
        finally:
            ended.append(name)

    procs = [site.process(worker(name, hold), name)
             for name, hold in (("a", 5.0), ("quick", 0.5), ("b", 5.0),
                                ("c", 5.0))]
    cluster.run(until=1.0)
    assert ended == ["quick"] and procs[1] not in site._owned
    a, _quick, b, c = procs
    assert list(site._owned) == [a, b, c]
    cluster.crash_site(1)
    assert ended == ["quick", "a", "b", "c"]
    assert a.killed and b.killed and c.killed
    assert not site._owned


def test_the_check_owns_what_a_delivery_turn_starts(cluster):
    """The dead-site check pins a process started in a site's delivery
    turn on that site without asking ``Site.process``: a serve process
    started around it outlives the crash, and its next step fails the
    run."""
    engine, site = cluster.engine, cluster.site(2)
    site.rpc._spawn = engine.process  # a crash no longer reaches it

    def slow(body, src):
        yield engine.timeout(1.0)
        return {}

    site.rpc.register("slow", slow)
    cluster.site(1).rpc.cast(2, "slow")
    engine.schedule(0.5, cluster.crash_site, 2)
    with pytest.raises(AssertionError,
                       match=r"serve:slow@2 .* resumed after site 2 crashed"):
        cluster.run()


def test_a_migrated_program_belongs_to_the_site_it_moved_to(cluster):
    """The program's process moves from its old site's registry to its
    new one's: the old site's crash spares it, the new site's kills it."""

    def traveller(sys):
        yield from sys.migrate(2)
        yield from sys.sleep(10.0)

    p = cluster.spawn(traveller, site_id=1)
    cluster.run(until=1.0)
    assert p.sim_proc in cluster.site(2)._owned
    assert p.sim_proc not in cluster.site(1)._owned
    cluster.crash_site(1)
    assert p.alive
    cluster.crash_site(2)
    assert p.sim_proc.killed and p.failed
