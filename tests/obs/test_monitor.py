"""Mutation tests for the online protocol monitors.

Each monitor is proven *live* by injecting the protocol bug it exists
to catch -- a forced NO vote followed by a commit, a grant that bypasses
lock arbitration, a lease served past expiry, a recall that drops
un-mirrored state, an abort that steals committed bytes -- and asserting
the corresponding check fires.  Clean counterparts assert the monitors
stay silent on correct behaviour, so the suite pins both directions.
"""

import pytest

from repro import Cluster, SystemConfig, drive
from repro.core import TransactionId
from repro.core.twophase import (
    abort_participant,
    commit_participant,
    prepare_participant,
)
from repro.locking import LockManager, LockMode
from repro.locking.lease import LeaseCache
from repro.obs import Observability
from repro.obs.monitor import MonitorEvent, MonitorViolation
from repro.rangeset import RangeSet
from repro.storage import Volume, WalFile

S, X = LockMode.SHARED, LockMode.EXCLUSIVE
T1, T2 = ("txn", 1), ("txn", 2)
F = (1, 2)


def monitored(site_ids=(1,), strict=False, config=None):
    cluster = Cluster(site_ids=site_ids, config=config)
    cluster.enable_observability(monitors=True, strict=strict)
    return cluster


@pytest.fixture
def rig():
    cluster = monitored((1,))
    drive(cluster.engine, cluster.create_file("/f", site_id=1))
    drive(cluster.engine, cluster.populate("/f", b"base" * 64))
    site = cluster.site(1)
    file_id = cluster.namespace.lookup("/f").primary.file_id
    return cluster, site, file_id


def dirty(cluster, site, file_id, tid, payload):
    state = site.update_state(file_id)
    drive(cluster.engine, state.write(("txn", tid), 0, payload))
    return state


def counts(cluster):
    return cluster.obs.monitors.violation_counts


# ----------------------------------------------------------------------
# 2PC
# ----------------------------------------------------------------------

def test_clean_participant_cycle_is_violation_free(rig):
    cluster, site, file_id = rig
    dirty(cluster, site, file_id, "t1", b"clean")
    drive(cluster.engine, prepare_participant(site, "t1", [file_id], 1))
    drive(cluster.engine, commit_participant(site, "t1"))
    hub = cluster.obs.finish_monitors()
    assert hub.events_seen > 0
    assert hub.total_violations == 0


def test_commit_after_no_vote_is_flagged(rig):
    """Injected bug: the coordinator commits a transaction whose
    participant voted NO (the prepare failed)."""
    cluster, site, file_id = rig
    bogus = (999, 1)  # no such volume: the prepare fails = NO vote
    with pytest.raises(Exception):
        drive(cluster.engine, prepare_participant(site, "t1", [bogus], 1))
    drive(cluster.engine, commit_participant(site, "t1"))
    assert counts(cluster)["2pc.commit_after_no"] >= 1


def test_both_commit_and_abort_is_flagged(rig):
    """Injected bug: one participant applies COMMIT and then ABORT for
    the same transaction."""
    cluster, site, file_id = rig
    dirty(cluster, site, file_id, "t1", b"conflict")
    drive(cluster.engine, prepare_participant(site, "t1", [file_id], 1))
    drive(cluster.engine, commit_participant(site, "t1"))
    drive(cluster.engine, abort_participant(site, "t1"))
    assert counts(cluster)["2pc.conflicting_decision"] >= 1


def test_lost_decision_liveness_is_flagged(monkeypatch):
    """Injected bug: phase two never runs, so YES voters of a committed
    transaction never hear the decision.  Caught at finish()."""
    import repro.core.twophase as twophase

    def swallowed_phase_two(site, txn, participants, **kw):
        return
        yield  # pragma: no cover - generator shape only

    monkeypatch.setattr(twophase, "phase_two", swallowed_phase_two)
    cluster = monitored((1, 2, 3))
    drive(cluster.engine, cluster.create_file("/db/a", site_id=1))
    drive(cluster.engine, cluster.populate("/db/a", b"." * 256))
    drive(cluster.engine, cluster.create_file("/db/b", site_id=3))
    drive(cluster.engine, cluster.populate("/db/b", b"." * 256))

    def writer(sysc):
        yield from sysc.begin_trans()
        fda = yield from sysc.open("/db/a", write=True)
        yield from sysc.write(fda, b"x" * 48)
        fdb = yield from sysc.open("/db/b", write=True)
        yield from sysc.write(fdb, b"y" * 32)
        yield from sysc.end_trans()

    p = cluster.spawn(writer, site_id=2)
    cluster.run()
    assert p.exit_status == "done", p.exit_value
    assert cluster.obs.monitors.total_violations == 0  # safety held
    cluster.obs.finish_monitors()
    assert counts(cluster)["2pc.lost_decision"] >= 1


def test_lost_decision_waived_for_crashed_participant(monkeypatch):
    """Same injected bug, but the YES voter crashed: crash legality
    waives the liveness obligation, so the monitor stays silent."""
    import repro.core.twophase as twophase

    def swallowed_phase_two(site, txn, participants, **kw):
        return
        yield  # pragma: no cover

    monkeypatch.setattr(twophase, "phase_two", swallowed_phase_two)
    cluster = monitored((1, 2))
    drive(cluster.engine, cluster.create_file("/db/a", site_id=1))
    drive(cluster.engine, cluster.populate("/db/a", b"." * 256))

    def writer(sysc):
        yield from sysc.begin_trans()
        fd = yield from sysc.open("/db/a", write=True)
        yield from sysc.write(fd, b"x" * 48)
        yield from sysc.end_trans()

    p = cluster.spawn(writer, site_id=2)
    cluster.engine.schedule(5.0, cluster.crash_site, 1)
    cluster.run()
    assert p.exit_status == "done", p.exit_value
    cluster.obs.finish_monitors()
    assert counts(cluster).get("2pc.lost_decision", 0) == 0


# ----------------------------------------------------------------------
# locking
# ----------------------------------------------------------------------

def test_conflicting_grant_is_flagged(eng, cost):
    """Injected bug: a grant that bypasses arbitration, leaving two
    exclusive holders on overlapping ranges."""
    obs = Observability(eng).install()
    hub = obs.attach_monitors()
    mgr = LockManager(eng, cost, site_id=1)
    drive(eng, mgr.lock(F, T1, X, 0, 10))
    assert hub.total_violations == 0
    mgr._do_grant(F, T2, X, 5, 15, False)
    assert hub.violation_counts["lock.conflicting_grant"] >= 1


def test_strict_mode_raises_at_the_offending_instant(eng, cost):
    obs = Observability(eng).install()
    obs.attach_monitors(strict=True)
    mgr = LockManager(eng, cost, site_id=1)
    drive(eng, mgr.lock(F, T1, X, 0, 10))
    with pytest.raises(MonitorViolation) as info:
        mgr._do_grant(F, T2, X, 5, 15, False)
    assert info.value.check == "lock.conflicting_grant"
    assert info.value.events  # carries the offending event chain


def test_non_conflicting_grants_stay_silent(eng, cost):
    obs = Observability(eng).install()
    hub = obs.attach_monitors()
    mgr = LockManager(eng, cost, site_id=1)
    drive(eng, mgr.lock(F, T1, X, 0, 10))
    drive(eng, mgr.lock(F, T2, X, 10, 20))   # adjacent: no overlap
    drive(eng, mgr.lock(F, T1, S, 30, 40))
    drive(eng, mgr.lock(F, T2, S, 30, 40))   # shared+shared: compatible
    assert hub.total_violations == 0


# ----------------------------------------------------------------------
# leases
# ----------------------------------------------------------------------

def lease_cluster(nsites=2, **overrides):
    config = SystemConfig(**dict({"lock_cache": True}, **overrides))
    cluster = monitored(tuple(range(1, nsites + 1)), config=config)
    drive(cluster.engine, cluster.create_file("/f", site_id=1))
    drive(cluster.engine, cluster.populate("/f", b"." * 20000))
    return cluster


def test_uncovered_lease_local_grant_is_flagged():
    """Injected bug: a lease-local grant at a site that holds no lease
    at all."""
    cluster = lease_cluster()
    file_id = cluster.namespace.lookup("/f").primary.file_id
    cluster.site(2).leases.manager.mirror_grant(
        file_id, ("txn", "ghost"), X, 0, 50)
    assert counts(cluster)["lease.uncovered_grant"] >= 1


def test_grant_from_expired_lease_is_flagged(monkeypatch):
    """Injected bug: the using site keeps serving from a lease past its
    expiry (the covers() clock check is disabled)."""
    real_covers = LeaseCache.covers
    monkeypatch.setattr(
        LeaseCache, "covers",
        lambda self, file_id, start, end, now: real_covers(
            self, file_id, start, end, 0.0))
    cluster = lease_cluster(lock_cache_lease=0.4)

    def prog(sysc):
        yield from sysc.begin_trans()
        fd = yield from sysc.open("/f", write=True)
        yield from sysc.lock(fd, 50)     # remote: earns the lease
        yield from sysc.unlock(fd, 50)
        yield from sysc.sleep(1.0)       # ...which expires at 0.4 s
        yield from sysc.lock(fd, 50)     # served locally anyway: bug
        yield from sysc.write(fd, b"z" * 50)
        yield from sysc.end_trans()

    cluster.spawn(prog, site_id=2)
    cluster.run()
    assert counts(cluster)["lease.expired_grant"] >= 1


def test_storage_grant_inside_a_live_lease_is_flagged():
    """Injected bug: the storage site forgets a lease its holder is
    still serving from (what a stale recall used to do), so a local
    writer is granted the leased range without a recall."""
    cluster = lease_cluster()
    file_id = cluster.namespace.lookup("/f").primary.file_id

    def prog(sysc):
        yield from sysc.begin_trans()
        fd = yield from sysc.open("/f", write=True)
        yield from sysc.lock(fd, 50)
        yield from sysc.end_trans()

    cluster.spawn(prog, site_id=2)          # earns the lease
    cluster.run()
    assert counts(cluster).get("lease.storage_grant_under_lease", 0) == 0
    cluster.site(1).leases.registry.drop(file_id, 2)
    cluster.spawn(prog, site_id=1)          # granted with no recall: bug
    cluster.run()
    assert counts(cluster)["lease.storage_grant_under_lease"] == 1


def test_recall_losing_unmirrored_state_is_flagged(monkeypatch):
    """Injected bug: the surrender path believes every lock record is
    already mirrored at the storage site, so the recall ships nothing --
    silently dropping the lease-local grant the storage site has never
    seen."""
    cluster = lease_cluster(nsites=3)
    site2 = cluster.site(2)
    everything = RangeSet.single(0, 1 << 30)

    class AllMirrored(dict):
        def get(self, holder, default=None):
            return everything

    monkeypatch.setattr(site2.leases.cache, "mirrored_of",
                        lambda file_id: AllMirrored())

    def leaseholder(sysc):
        yield from sysc.begin_trans()
        fd = yield from sysc.open("/f", write=True)
        yield from sysc.lock(fd, 50)     # remote: mirrored at storage
        yield from sysc.seek(fd, 100)
        yield from sysc.lock(fd, 50)     # lease-local: storage never saw it
        yield from sysc.sleep(1.0)
        yield from sysc.end_trans()

    def contender(sysc):
        yield from sysc.sleep(0.2)
        yield from sysc.begin_trans()
        fd = yield from sysc.open("/f", write=True)
        yield from sysc.lock(fd, 50)     # conflicts: forces the recall
        yield from sysc.end_trans()

    cluster.spawn(leaseholder, site_id=2)
    cluster.spawn(contender, site_id=3)
    cluster.run()
    assert counts(cluster)["lease.recall_lost_state"] >= 1


def test_clean_recall_stays_silent():
    """The same two-site contention without the mutation: the recall
    ships the un-mirrored record and every lease check stays green."""
    cluster = lease_cluster(nsites=3)

    def leaseholder(sysc):
        yield from sysc.begin_trans()
        fd = yield from sysc.open("/f", write=True)
        yield from sysc.lock(fd, 50)
        yield from sysc.seek(fd, 100)
        yield from sysc.lock(fd, 50)
        yield from sysc.sleep(1.0)
        yield from sysc.end_trans()

    def contender(sysc):
        yield from sysc.sleep(0.2)
        yield from sysc.begin_trans()
        fd = yield from sysc.open("/f", write=True)
        yield from sysc.lock(fd, 50)
        yield from sysc.end_trans()

    p1 = cluster.spawn(leaseholder, site_id=2)
    p2 = cluster.spawn(contender, site_id=3)
    cluster.run()
    assert p1.exit_status == "done", p1.exit_value
    assert p2.exit_status == "done", p2.exit_value
    cluster.obs.finish_monitors()
    assert cluster.obs.monitors.total_violations == 0
    assert cluster.site(2).leases.cache.stats["recalls"] == 1


# ----------------------------------------------------------------------
# WAL / no-steal
# ----------------------------------------------------------------------

@pytest.fixture
def wal_rig(eng, cost):
    obs = Observability(eng).install()
    hub = obs.attach_monitors()
    vol = Volume(eng, cost, vol_id=1)
    ino = drive(eng, vol.create_file())
    wal = WalFile(eng, cost, vol, ino)
    return hub, vol, wal


A_OWNER, B_OWNER = ("txn", "a"), ("txn", "b")


def test_clean_commit_abort_checkpoint_stays_silent(wal_rig):
    hub, vol, wal = wal_rig

    def prog():
        yield from wal.write(A_OWNER, 0, b"A" * 64)
        yield from wal.commit(A_OWNER)
        yield from wal.write(B_OWNER, 0, b"B" * 64)
        yield from wal.abort(B_OWNER)     # committed bytes restored
        yield from wal.checkpoint()

    drive(wal._engine, prog())
    assert hub.events_seen >= 3
    assert hub.total_violations == 0


def test_abort_stealing_committed_bytes_is_flagged(wal_rig):
    """Injected bug (the PR 1 regression, re-broken): the abort restores
    straight from the disk image, losing committed-but-uncheckpointed
    bytes underneath the aborted write."""
    hub, vol, wal = wal_rig

    def prog():
        yield from wal.write(A_OWNER, 0, b"A" * 64)
        yield from wal.commit(A_OWNER)
        yield from wal.write(B_OWNER, 0, b"B" * 64)
        wal._committed_images.clear()     # the injected no-steal bug
        yield from wal.abort(B_OWNER)

    drive(wal._engine, prog())
    assert hub.violation_counts["wal.committed_regressed"] >= 1


def test_checkpoint_writing_stale_bytes_is_flagged(wal_rig):
    """Injected bug: the committed snapshot is corrupted before the
    checkpoint, so the bytes that reach disk are not the committed
    ones."""
    hub, vol, wal = wal_rig

    def prog():
        yield from wal.write(A_OWNER, 0, b"A" * 64)
        yield from wal.commit(A_OWNER)
        wal._committed_images[0][0:64] = b"Z" * 64   # corrupt the snapshot
        yield from wal.checkpoint()

    drive(wal._engine, prog())
    assert hub.violation_counts["wal.committed_regressed"] >= 1


# ----------------------------------------------------------------------
# hub behaviour and the report section
# ----------------------------------------------------------------------

def test_section_counts_and_sample_are_consistent(eng, cost):
    obs = Observability(eng).install()
    obs.attach_monitors()
    mgr = LockManager(eng, cost, site_id=1)
    drive(eng, mgr.lock(F, T1, X, 0, 10))
    mgr._do_grant(F, T2, X, 5, 15, False)
    section = obs.monitors.section()
    assert section["total_violations"] == \
        sum(section["violation_counts"].values())
    assert section["violations"], "sample must capture the violation"
    sample = section["violations"][0]
    assert sample["check"] == "lock.conflicting_grant"
    assert isinstance(sample["message"], str) and sample["events"]
    assert "lock.grant" in section["checks"]
    # The violation also surfaced as a marker and a counter.
    assert any(s.name == "monitor.violation" for s in obs.spans.instants)
    values = obs.metrics.counters_by_site().get("1", {})
    assert values.get("monitor.violations.lock.conflicting_grant") == 1


def test_finish_is_idempotent(rig):
    cluster, site, file_id = rig
    hub = cluster.obs.monitors
    cluster.obs.finish_monitors()
    before = hub.total_violations
    cluster.obs.finish_monitors()
    assert hub.total_violations == before


# ----------------------------------------------------------------------
# what a monitored run leaves in its trace
# ----------------------------------------------------------------------

def _exported(cluster):
    from repro.obs.export import to_chrome_trace

    return to_chrome_trace(cluster.obs.spans, now=cluster.engine.now)


def test_clean_cycle_exports_yes_votes_and_no_violation_marker(rig):
    cluster, site, file_id = rig
    dirty(cluster, site, file_id, "t1", b"trace-me")
    drive(cluster.engine, prepare_participant(site, "t1", [file_id], 1))
    drive(cluster.engine, commit_participant(site, "t1"))
    hub = cluster.obs.finish_monitors()
    assert hub.events_seen >= 2          # the vote and the delivery
    assert hub.total_violations == 0
    events = _exported(cluster)["traceEvents"]
    votes = [e["args"]["vote"] for e in events if e["name"] == "2pc.prepare"]
    assert votes == ["yes"]
    assert not any(e["name"] == "monitor.violation" for e in events)


def test_failed_prepare_shows_its_no_vote_on_the_span(rig):
    """A failed prepare is the NO vote: its span says so, next to the
    ``failed`` status, so a trace viewer needs no inference."""
    cluster, site, _file_id = rig
    with pytest.raises(Exception):
        drive(cluster.engine, prepare_participant(site, "t9", [(999, 1)], 1))
    (span,) = [s for s in cluster.obs.spans.spans if s.name == "2pc.prepare"]
    assert (span.status, span.attrs["vote"]) == ("failed", "no")
    assert cluster.obs.monitors.total_violations == 0


def test_commit_after_no_leaves_a_marker_in_the_exported_trace(rig):
    cluster, site, _file_id = rig
    with pytest.raises(Exception):
        drive(cluster.engine, prepare_participant(site, "t1", [(999, 1)], 1))
    drive(cluster.engine, commit_participant(site, "t1"))
    markers = [e for e in _exported(cluster)["traceEvents"]
               if e["name"] == "monitor.violation"]
    assert markers
    assert {e["args"]["check"] for e in markers} == {"2pc.commit_after_no"}
    assert len(markers) == cluster.obs.monitors.total_violations


def test_no_vote_after_a_commit_decision_is_flagged(eng):
    """The vote arrives after the decision: the order a trace shows
    when a coordinator decided without waiting for every vote."""
    obs = Observability(eng).install()
    hub = obs.attach_monitors()
    obs.event("2pc.decide", 1, "t1", "commit")
    assert hub.total_violations == 0
    obs.event("2pc.vote", 2, "t1", "no", 1)
    assert hub.violation_counts == {"2pc.commit_after_no": 1}


def test_strict_hub_raises_commit_after_no_at_the_delivery():
    cluster = monitored((1,), strict=True)
    drive(cluster.engine, cluster.create_file("/f", site_id=1))
    site = cluster.site(1)
    with pytest.raises(Exception) as prepare_info:
        drive(cluster.engine, prepare_participant(site, "t1", [(999, 1)], 1))
    assert not isinstance(prepare_info.value, MonitorViolation)
    with pytest.raises(MonitorViolation) as info:
        drive(cluster.engine, commit_participant(site, "t1"))
    assert info.value.check == "2pc.commit_after_no"
    assert [ev.kind for ev in info.value.events] == ["2pc.vote", "2pc.deliver"]


def test_event_repr_shows_scalars_and_plain_tuples_but_no_raw_tid():
    """Violation reports quote these reprs; a tuple-typed transaction
    id must not start appearing in them."""
    tid = TransactionId(timestamp=1.5, site_id=2, sequence=7)
    event = MonitorEvent("2pc.vote", 1, 0.25, (tid, "yes", None))
    assert repr(event) == "<2pc.vote site=1 t=0.2500000 {'vote': 'yes'}>"
    event = MonitorEvent("lock.grant", 1, 0.25, (
        "lease", "f", ("txn", tid), "X", 0, 8, False, object(), None))
    assert repr(event) == (
        "<lock.grant site=1 t=0.2500000 {'end': 8, 'file_id': 'f', "
        "'holder': ('txn', tid(1.5.2.7)), 'mode': 'X', 'nontrans': False, "
        "'role': 'lease', 'start': 0}>")
