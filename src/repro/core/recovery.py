"""Reboot-time transaction recovery (section 4.4).

"When a site reboots after a crash, before transactions are permitted
to run, the transaction recovery mechanism is started":

* every **coordinator log** entry at the site is examined: transactions
  that reached the commit point are queued for the second phase of
  two-phase commit; transactions still unknown, or marked aborted, are
  queued for abort processing;
* every **prepare log** entry names an in-doubt transaction this site
  prepared for some coordinator: the coordinator is asked for the
  verdict and the intentions are applied or discarded accordingly
  (a coordinator that no longer remembers the transaction means it was
  resolved-and-forgotten or never committed: presumed abort).

All messages sent here may duplicate messages the original protocol
already delivered; temporally unique transaction ids and idempotent
participant processing make that harmless.
"""

from __future__ import annotations

from repro.net import MessageKinds, RpcError

from .twophase import (
    abort_at_participants,
    abort_participant,
    commit_participant,
    coordinator_status,
    phase_two,
)

__all__ = ["run_recovery"]


def run_recovery(site):
    """Generator: full recovery pass for a rebooting site."""
    yield from _recover_as_coordinator(site)
    yield from _recover_as_participant(site)


def _recover_as_coordinator(site):
    by_tid = {}
    for entry in site.coordinator_log.scan():
        tid = entry.get("tid")
        if tid is None:
            continue
        rec = by_tid.setdefault(tid, {"files": [], "status": None})
        if entry["type"] == "txn":
            rec["files"] = entry["files"]
            rec["status"] = rec["status"] or entry["status"]
        elif entry["type"] == "status":
            rec["status"] = entry["status"]

    for tid in sorted(by_tid):
        rec = by_tid[tid]
        participants = sorted({s for (_v, _i, s) in rec["files"]}) or [site.site_id]
        txn = site.cluster.txn_registry.get(tid)
        if rec["status"] == "committed":
            # Queue the second phase of two-phase commit.
            if txn is not None:
                yield from _finish_phase_two(site, txn, participants)
            else:
                yield from _finish_phase_two_raw(site, tid, participants)
        else:
            # Unknown or aborted: queue abort processing.
            yield from abort_at_participants(site, tid, participants)
            site.coordinator_log.discard(tid)
            if txn is not None and not txn.is_finished():
                from .transaction import TxnState

                # Reason before state: the ABORTED transition is the
                # abort-provenance funnel, and it classifies from the
                # reason string in place.
                txn.abort_reason = txn.abort_reason or "coordinator crash recovery"
                txn.state = TxnState.ABORTED


def _finish_phase_two(site, txn, participants):
    yield from phase_two(site, txn, participants)


def _finish_phase_two_raw(site, tid, participants):
    """Phase two for a transaction whose in-core record is gone."""

    class _Shim:
        obs_span = commit_started_at = None  # no trace, no latency

        def __init__(self):
            self.tid = tid
            self.state = None

    yield from phase_two(site, _Shim(), participants)


def _recover_as_participant(site):
    in_doubt = {}
    for vol_id in sorted(site.volumes, key=str):
        for entry in site.prepare_log(vol_id).scan():
            if entry.get("type") == "prepare":
                in_doubt[entry["tid"]] = entry["coordinator"]
    for tid in sorted(in_doubt):
        coordinator = in_doubt[tid]
        if coordinator == site.site_id:
            verdict = coordinator_status(site, tid)
        else:
            try:
                reply = yield from site.rpc.call(
                    coordinator, MessageKinds.TXN_STATUS, {"tid": tid}
                )
                verdict = reply["status"]
            except RpcError:
                continue  # coordinator down: stay in doubt (2PC blocks)
        if verdict == "committed":
            yield from commit_participant(site, tid)
        elif verdict in ("aborted", "presumed-aborted"):
            yield from abort_participant(site, tid)
        # 'unknown': the coordinator is alive but undecided; its own
        # recovery (or the running protocol) will reach us.
