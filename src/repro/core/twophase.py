"""Two-phase commit (section 4.2) and participant-side rollback.

Three levels of log, exactly as the paper lays out:

1. the **coordinator log** at the coordinator site (the top-level
   process's site at commit time): the transaction structure with a
   status marker, initially *unknown*; the later write of the
   *committed* status marker is the commit point;
2. the **prepare logs** at participant sites, one per logical volume
   (or per file in the measured implementation, footnote 10), holding
   enough of the intentions lists to finish the commit after any local
   failure;
3. the **per-file shadow pages** written by the flush itself.

Phase two is asynchronous: a kernel process at the coordinator site
sends commit messages after the commit point, retrying across failures;
participant processing is idempotent, so duplicate messages from
recovery are harmless (section 4.4).
"""

from __future__ import annotations

from repro.locus.errors import TransactionAborted
from repro.net import MessageKinds, RpcError
from repro.sim import AllOf
from repro.storage import IntentionsList

__all__ = [
    "run_two_phase_commit",
    "prepare_participant",
    "commit_participant",
    "abort_participant",
    "abort_at_participants",
    "coordinator_status",
]


def run_two_phase_commit(site, txn):
    """Generator: full commit protocol, run by the top-level process.

    Raises :class:`TransactionAborted` if any participant cannot
    prepare.  Returns after the commit point; phase two continues in the
    background (section 6.1: the fifth I/O happens "some time later").
    """
    from .transaction import TxnState  # local import avoids a cycle

    engine, cost = site.engine, site.cost
    obs = engine.obs
    commit_started = engine.now
    txn.commit_started_at = commit_started
    span = obs.span("2pc", site.site_id, txn.tid)
    txn.state = TxnState.PREPARING
    txn.coordinator_site = site.site_id

    files = sorted(txn.files())
    participants = sorted({storage_site for (_v, _i, storage_site) in files})
    if not participants:
        participants = [site.site_id]
    txn.participants = tuple(participants)

    # Step 1: the transaction structure, status unknown (Figure 5 step 1).
    yield from site.coordinator_log.append(
        {"type": "txn", "tid": txn.tid, "files": files, "status": "unknown"}
    )

    # Step 2: prepare each participant (Figure 5 steps 2-3), in parallel.
    by_site = {}
    for vol_id, ino, storage_site in files:
        by_site.setdefault(storage_site, []).append((vol_id, ino))

    ro_sites = set()  # participants that voted READ_ONLY at prepare

    def one_prepare(target, file_ids):
        if target == site.site_id:
            reply = yield from prepare_participant(
                site, txn.tid, file_ids, site.site_id
            )
            if reply.get("read_only"):
                ro_sites.add(target)
            return
        reply = yield from _call(
            site, target, MessageKinds.PREPARE,
            {"tid": txn.tid, "files": file_ids, "coordinator": site.site_id})
        if reply.get("read_only"):
            ro_sites.add(target)

    workers = [
        site.process(one_prepare(target, file_ids), "prepare@%s" % target)
        for target, file_ids in sorted(by_site.items())
    ]
    try:
        yield AllOf(engine, workers)
    except (RpcError, Exception) as exc:
        # A participant failed or is unreachable before the commit
        # point: the transaction aborts (section 4.3).
        yield from site.coordinator_log.append_in_place(
            {"type": "status", "tid": txn.tid, "status": "aborted"}
        )
        txn.state = TxnState.ABORTING
        txn.abort_reason = "prepare failed: %s" % exc
        # Announced before the abort it explains starts.
        obs.event("2pc.prepare_failed", site.site_id, txn, exc,
                  tuple(participants))
        yield from abort_at_participants(site, txn.tid, participants)
        txn.state = TxnState.ABORTED
        obs.end(span, "aborted")
        obs.end(txn.obs_span, "aborted")
        raise TransactionAborted(txn.tid, txn.abort_reason)

    # Step 3: the commit point (Figure 5 step 4) -- an in-place status
    # update of the coordinator log record, always one I/O.
    yield from site.coordinator_log.append_in_place(
        {"type": "status", "tid": txn.tid, "status": "committed"}
    )
    txn.state = TxnState.COMMITTED
    # Commit latency as the application sees it: EndTrans to the commit
    # point, measured at the coordinator (section 6.3's "at the
    # requesting site" methodology).
    obs.observe(site.site_id, "commit.latency", engine.now - commit_started,
                mix=txn.mix)

    # Phase two runs asynchronously (Figure 5 step 5).  Spawned before
    # the coordinator span closes so it inherits the causal context.
    # READ_ONLY voters hold nothing to apply or release -- they are
    # excluded from phase two entirely (their recovery-path commit
    # message, if any, is an idempotent no-op).
    live = [p for p in participants if p not in ro_sites]
    site.process(phase_two(site, txn, live), "phase2@%s" % site.site_id)
    obs.end(span, "committed")


def phase_two(site, txn, participants, retry_delay=0.25, max_rounds=40):
    """Generator: deliver commit messages until every participant acks.

    Participants that stay unreachable past ``max_rounds`` are left for
    recovery: the coordinator log entry survives, and either end's
    reboot-time recovery finishes the job (section 4.4).
    """
    from .transaction import TxnState

    pending = set(participants)
    rounds = 0
    while pending and rounds < max_rounds:
        rounds += 1
        for target in sorted(pending):
            try:
                if target == site.site_id:
                    yield from commit_participant(site, txn.tid)
                elif site.batching is not None:
                    # Concurrent phase twos bound for the same site
                    # share one message.
                    yield from site.batching.notify(target, txn.tid)
                else:
                    yield from site.rpc.call(
                        target, MessageKinds.COMMIT, {"tid": txn.tid}
                    )
            except RpcError:
                continue  # unreachable: retry next round
            pending.discard(target)
        if pending:
            yield site.engine.timeout(retry_delay)
    if not pending:
        site.coordinator_log.discard(txn.tid)
        txn.state = TxnState.RESOLVED
        obs = site.engine.obs
        obs.end(txn.obs_span, "resolved")
        if txn.commit_started_at is not None:
            # Full resolution latency: EndTrans through the last
            # participant ack (the paper's fifth I/O, section 6.1).
            obs.observe(site.site_id, "commit.resolve",
                        site.engine.now - txn.commit_started_at, mix=txn.mix)
        if site.config.auto_propagate:
            yield from _propagate_replicated(site, txn)


def _call(site, target, kind, body):
    """``site.rpc.call`` for a prepare or a phase-two message; with lock
    caching on, the lease refresh piggybacks on it (docs/LOCK_CACHE.md)."""
    if site.leases is not None:
        return site.leases.call(target, kind, body)
    return site.rpc.call(target, kind, body)


def _propagate_replicated(site, txn):
    """Background replica propagation after a resolved commit
    (section 5.2's lazy update of non-primary storage sites)."""
    from repro.fs.replication import propagate_file

    cluster = site.cluster
    touched_paths = set()
    file_ids = {(vol_id, ino) for vol_id, ino, _s in txn.files()}
    for path in cluster.namespace.paths():
        info = cluster.namespace.lookup(path)
        if len(info.replicas) < 2:
            continue
        if info.primary.file_id in file_ids:
            touched_paths.add(path)
    for path in sorted(touched_paths):
        try:
            yield from propagate_file(cluster, path)
        except Exception:  # noqa: BLE001 - propagation is best-effort
            continue


# ----------------------------------------------------------------------
# participant side
# ----------------------------------------------------------------------

def prepare_participant(site, tid, file_ids, coordinator):
    """Generator: flush records, write the prepare log(s), remember the
    intentions in core for the (common) no-crash phase two.  Idempotent:
    a duplicate prepare message (recovery resend, section 4.4) neither
    re-flushes nor duplicates log entries."""
    if tid in site.prepared:
        return {"prepared": True}
    obs = site.engine.obs
    span = obs.span("2pc.prepare", site.site_id, tid, len(file_ids),
                    coordinator)
    try:
        result = yield from _prepare_participant_body(
            site, tid, file_ids, coordinator
        )
    except BaseException:
        # A failed prepare IS the NO vote (the coordinator sees the error
        # and aborts).  The ``vote`` attr shows each participant's vote
        # on its span in an exported Chrome trace.
        obs.end(span, "failed", "no")
        obs.event("2pc.vote", site.site_id, tid, "no", coordinator)
        raise
    vote = "ro" if result.get("read_only") else "yes"
    obs.end(span, "prepared", vote)
    obs.event("2pc.vote", site.site_id, tid, vote, coordinator)
    return result


def _prepare_participant_body(site, tid, file_ids, coordinator):
    holder = ("txn", tid)
    if site.batching is not None and site.batching.read_only(holder, file_ids):
        return {"prepared": True, "read_only": True}
    intents_list = []
    for file_id in sorted(file_ids):
        state = site.update_state(file_id)
        intents = yield from state.flush(holder)
        intents_list.append(intents)
    if site.config.prepare_log_per_volume:
        groups = {}
        for intents in intents_list:
            groups.setdefault(intents.vol_id, []).append(intents)
    else:
        # Footnote 10: the measured implementation wrote one prepare log
        # entry per file per transaction.
        groups = {
            (intents.vol_id, intents.ino): [intents] for intents in intents_list
        }
    for key, group in sorted(groups.items(), key=lambda kv: str(kv[0])):
        vol_id = key[0] if isinstance(key, tuple) else key
        log = site.prepare_log(vol_id)
        yield from log.append(
            {
                "type": "prepare",
                "tid": tid,
                "coordinator": coordinator,
                "intents": [i.to_record() for i in group],
            }
        )
    site.prepared[tid] = intents_list
    site.prepared_coordinator[tid] = coordinator
    return {"prepared": True}


def commit_participant(site, tid):
    """Generator: apply intentions and release retained locks.  Works
    from in-core state or, after a crash, from the prepare logs;
    idempotent either way."""
    obs = site.engine.obs
    span = obs.span("2pc.apply", site.site_id, tid)
    obs.event("2pc.deliver", site.site_id, tid, "commit")
    try:
        result = yield from _commit_participant_body(site, tid)
    finally:
        obs.end(span, "applied")
    return result


def _commit_participant_body(site, tid):
    holder = ("txn", tid)
    intents_list = site.prepared.pop(tid, None)
    if intents_list is None:
        intents_list = _intents_from_prepare_logs(site, tid)
    for intents in intents_list:
        file_id = (intents.vol_id, intents.ino)
        state = site.update_state(file_id)
        yield from state.apply(intents)
    site.prepared_coordinator.pop(tid, None)
    site.release_holder(holder)
    _clear_prepare_logs(site, tid)
    for intents in intents_list:
        intents.free_stale(site.volumes[intents.vol_id])
    return {"committed": True}


def abort_participant(site, tid):
    """Generator: roll back every trace of the transaction at this site:
    in-core working data, prepared shadow blocks (in-core or logged),
    locks, and queued lock waits."""
    obs = site.engine.obs
    span = obs.span("2pc.abort", site.site_id, tid)
    obs.event("2pc.deliver", site.site_id, tid, "abort")
    try:
        result = yield from _abort_participant_body(site, tid)
    finally:
        obs.end(span, "aborted")
    return result


def _abort_participant_body(site, tid):
    holder = ("txn", tid)
    # Logged-but-uninstalled shadow blocks (crash between prepare and
    # abort): free them from the durable record.
    for intents in _intents_from_prepare_logs(site, tid):
        volume = site.volumes.get(intents.vol_id)
        if volume is None:
            continue
        intents.free_stale(volume)
        # The in-core state (if any) must not double-free these blocks.
        state = site.update_states.get((intents.vol_id, intents.ino))
        if state is not None:
            state._prepared.pop(holder, None)
    _clear_prepare_logs(site, tid)
    site.prepared.pop(tid, None)
    site.prepared_coordinator.pop(tid, None)
    for state in list(site.update_states.values()):
        if holder in state.owners():
            yield from state.abort(holder)
    site.cancel_waits(holder, TransactionAborted(tid, "aborted"))
    site.release_holder(holder)
    return {"aborted": True}


def abort_at_participants(coordinator_site, tid, sites):
    """Generator: deliver abort processing to each listed site.
    Unreachable sites are skipped -- their recovery (or the topology
    handler) cleans up independently."""
    for target in sites:
        try:
            if target == coordinator_site.site_id:
                yield from abort_participant(coordinator_site, tid)
            else:
                yield from coordinator_site.rpc.call(
                    target, MessageKinds.ABORT, {"tid": tid}
                )
        except RpcError:
            continue


def coordinator_status(site, tid):
    """The coordinator log's verdict on a transaction: 'committed',
    'aborted', or 'unknown' (still undecided).  A transaction with no
    log entries at all is presumed aborted (its log was garbage
    collected only after full resolution, or it never committed)."""
    status = None
    for entry in site.coordinator_log.records_of(tid):
        if entry["type"] == "txn":
            status = status or entry["status"]
        elif entry["type"] == "status":
            status = entry["status"]
    if status is None:
        return "presumed-aborted"
    return status


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def _intents_from_prepare_logs(site, tid):
    out = []
    for vol_id in sorted(site.volumes, key=str):
        for entry in site.prepare_log(vol_id).records_of(tid):
            if entry.get("type") == "prepare":
                out.extend(IntentionsList.from_record(r) for r in entry["intents"])
    return out


def _clear_prepare_logs(site, tid):
    for vol_id in site.volumes:
        site.prepare_log(vol_id).discard(tid, "prepare")
