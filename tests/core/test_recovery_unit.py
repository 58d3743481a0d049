"""Recovery machinery, driven directly against constructed log states."""

import pytest

from repro import Cluster, drive
from repro.core.recovery import run_recovery
from repro.core.twophase import prepare_participant


@pytest.fixture
def rig():
    cluster = Cluster(site_ids=(1, 2))
    drive(cluster.engine, cluster.create_file("/f", site_id=2))
    drive(cluster.engine, cluster.populate("/f", b"base" * 32))
    file_id = cluster.namespace.lookup("/f").primary.file_id
    return cluster, cluster.site(1), cluster.site(2), file_id


def prepare_at(cluster, site, file_id, tid, payload, coordinator):
    state = site.update_state(file_id)
    drive(cluster.engine, state.write(("txn", tid), 0, payload))
    drive(cluster.engine,
          prepare_participant(site, tid, [file_id], coordinator))


def committed_bytes(cluster, site, file_id, n):
    from repro.storage import OpenFileState

    vol = site.volumes[file_id[0]]
    fresh = OpenFileState(cluster.engine, cluster.cost, vol, file_id[1])
    return drive(cluster.engine, fresh.read(0, n))


def crash_in_core(site):
    """Wipe in-core state without touching the network (focused test)."""
    site.prepared.clear()
    site.prepared_coordinator.clear()
    site.update_states.clear()
    site.cache.clear()


def test_participant_recovery_commits_after_coordinator_said_committed(rig):
    cluster, coord, part, file_id = rig
    prepare_at(cluster, part, file_id, "T1", b"recovered-payload", coordinator=1)
    drive(cluster.engine, coord.coordinator_log.append(
        {"type": "txn", "tid": "T1", "files": [file_id + (2,)], "status": "unknown"}))
    drive(cluster.engine, coord.coordinator_log.append_in_place(
        {"type": "status", "tid": "T1", "status": "committed"}))
    crash_in_core(part)
    drive(cluster.engine, run_recovery(part))
    assert committed_bytes(cluster, part, file_id, 17) == b"recovered-payload"
    assert len(part.prepare_log(file_id[0])) == 0


def test_participant_recovery_aborts_when_coordinator_says_aborted(rig):
    cluster, coord, part, file_id = rig
    prepare_at(cluster, part, file_id, "T1", b"doomed-payload", coordinator=1)
    drive(cluster.engine, coord.coordinator_log.append(
        {"type": "txn", "tid": "T1", "files": [file_id + (2,)], "status": "unknown"}))
    drive(cluster.engine, coord.coordinator_log.append_in_place(
        {"type": "status", "tid": "T1", "status": "aborted"}))
    crash_in_core(part)
    drive(cluster.engine, run_recovery(part))
    assert committed_bytes(cluster, part, file_id, 4) == b"base"
    assert len(part.prepare_log(file_id[0])) == 0


def test_participant_recovery_presumes_abort_for_unknown_tid(rig):
    """No coordinator log entries at all => resolved-and-forgotten or
    never committed: presumed abort."""
    cluster, _coord, part, file_id = rig
    prepare_at(cluster, part, file_id, "T9", b"orphan", coordinator=1)
    crash_in_core(part)
    drive(cluster.engine, run_recovery(part))
    assert committed_bytes(cluster, part, file_id, 4) == b"base"
    assert len(part.prepare_log(file_id[0])) == 0


def test_participant_stays_in_doubt_while_coordinator_undecided(rig):
    cluster, coord, part, file_id = rig
    prepare_at(cluster, part, file_id, "T1", b"in-doubt", coordinator=1)
    drive(cluster.engine, coord.coordinator_log.append(
        {"type": "txn", "tid": "T1", "files": [file_id + (2,)], "status": "unknown"}))
    crash_in_core(part)
    drive(cluster.engine, run_recovery(part))
    # Still undecided: prepare log retained, nothing applied or freed.
    assert len(part.prepare_log(file_id[0])) == 1
    assert committed_bytes(cluster, part, file_id, 4) == b"base"


def test_participant_blocks_while_coordinator_unreachable(rig):
    cluster, _coord, part, file_id = rig
    prepare_at(cluster, part, file_id, "T1", b"blocked", coordinator=1)
    crash_in_core(part)
    cluster.crash_site(1)
    drive(cluster.engine, run_recovery(part))
    # 2PC blocks: the in-doubt entry survives until the coordinator is
    # reachable again.
    assert len(part.prepare_log(file_id[0])) == 1


def test_coordinator_recovery_finishes_committed_txn(rig):
    cluster, coord, part, file_id = rig
    prepare_at(cluster, part, file_id, "T1", b"push-through", coordinator=1)
    drive(cluster.engine, coord.coordinator_log.append(
        {"type": "txn", "tid": "T1", "files": [file_id + (2,)], "status": "unknown"}))
    drive(cluster.engine, coord.coordinator_log.append_in_place(
        {"type": "status", "tid": "T1", "status": "committed"}))
    drive(cluster.engine, run_recovery(coord))
    assert committed_bytes(cluster, part, file_id, 12) == b"push-through"
    assert len(coord.coordinator_log) == 0  # fully resolved and scrubbed


def test_coordinator_recovery_aborts_undecided_txn(rig):
    cluster, coord, part, file_id = rig
    prepare_at(cluster, part, file_id, "T1", b"undecided", coordinator=1)
    drive(cluster.engine, coord.coordinator_log.append(
        {"type": "txn", "tid": "T1", "files": [file_id + (2,)], "status": "unknown"}))
    drive(cluster.engine, run_recovery(coord))
    assert committed_bytes(cluster, part, file_id, 4) == b"base"
    assert len(coord.coordinator_log) == 0
    assert len(part.prepare_log(file_id[0])) == 0


def test_recovery_with_empty_logs_is_a_noop(rig):
    cluster, coord, _part, _file_id = rig
    drive(cluster.engine, run_recovery(coord))
    assert len(coord.coordinator_log) == 0


def test_participant_recovery_skips_a_verdict_phase_two_overtook(rig,
                                                                  monkeypatch):
    """While recovery waits for ``TXN_STATUS``, phase two commits the
    transaction here and the coordinator forgets it; the reply then says
    presumed-aborted, and acting on it would abort a committed
    transaction.  The prepare record is gone, so recovery skips it."""
    import repro.core.recovery as recovery
    from repro.core.twophase import commit_participant

    cluster, coord, part, file_id = rig
    prepare_at(cluster, part, file_id, "T1", b"phase-two-won", coordinator=1)
    drive(cluster.engine, coord.coordinator_log.append(
        {"type": "txn", "tid": "T1", "files": [file_id + (2,)], "status": "unknown"}))
    drive(cluster.engine, coord.coordinator_log.append_in_place(
        {"type": "status", "tid": "T1", "status": "committed"}))
    crash_in_core(part)
    call = part.rpc.call

    def overtaken_call(dst, kind, body=None, **kw):
        yield from commit_participant(part, body["tid"])
        coord.coordinator_log.discard(body["tid"])
        return (yield from call(dst, kind, body, **kw))

    aborts = []
    monkeypatch.setattr(part.rpc, "call", overtaken_call)
    monkeypatch.setattr(recovery, "abort_participant",
                        lambda site, tid: aborts.append(tid) or iter(()))
    drive(cluster.engine, run_recovery(part))
    assert aborts == []
    assert committed_bytes(cluster, part, file_id, 13) == b"phase-two-won"
