"""Commit batching (docs/COMMIT_BATCHING.md), an extension of the
section 4.2 commit path, as one per-site layer.

With ``SystemConfig.commit_batching`` on, each site's ``batching`` is a
:class:`BatchingLayer` holding all three mechanisms: the per-disk
group-commit schedulers the site's logs force through, the READ_ONLY
vote, and phase-2 coalescing with its ``trans.commit_batch`` handler.
Group commit and phase-2 coalescing are two users of one
:class:`~repro.storage.groupcommit.PiggybackPump`.  With the switch off
the handle is None and neither this module nor
:mod:`repro.storage.groupcommit` is imported; protocol code reaches the
layer only through the hooks docs/COMMIT_BATCHING.md lists.
"""

from __future__ import annotations

import functools

from repro.core import twophase
from repro.net import MessageKinds, RpcError
from repro.storage.groupcommit import GroupCommitScheduler, PiggybackPump

__all__ = ["BatchingLayer"]


class BatchingLayer:
    """One site's commit batching."""

    def __init__(self, site):
        self.site = site
        self.engine = site.engine
        # One scheduler per disk, shared by every log on it; built once,
        # like the logs that hold them, so a crash does not replace it.
        self._schedulers = {}
        self.reset()

    def reset(self):
        """A crash: the phase-2 queues are in core, so they go; recovery
        replays from the logs."""
        self._phase2 = {}  # target site -> PiggybackPump

    def handlers(self, table):
        """The site's RPC handler table plus ``trans.commit_batch``."""
        return {**table, MessageKinds.COMMIT_BATCH: _h_commit_batch}

    def scheduler(self, disk):
        """The group-commit scheduler for ``disk``."""
        sched = self._schedulers.get(disk.name)
        if sched is None:
            sched = self._schedulers[disk.name] = GroupCommitScheduler(
                self.engine, disk, self.site.process, site=self.site.site_id)
        return sched

    def read_only(self, holder, file_ids):
        """The READ_ONLY vote: True when none of ``file_ids`` carries
        ``holder``'s dirty intentions -- it only read.  Nothing to flush,
        nothing to redo: the prepare-log force is skipped, the locks are
        released now (the participant's serialization point is its
        prepare), and the coordinator leaves the site out of phase two.
        The check runs *before* any flush so no empty intentions are
        recorded.  A recovery-time COMMIT/ABORT reaching this site anyway
        is an idempotent no-op (section 4.4)."""
        site = self.site
        if any(state is not None and state.has_updates(holder)
               for state in (site.update_states.get(tuple(f))
                             for f in file_ids)):
            return False
        site.release_holder(holder)
        self.engine.obs.incr(site.site_id, "commit.ro_skips")
        return True

    def notify(self, target, tid):
        """Generator: phase two's commit notification of ``tid`` to
        ``target``.  Every tid queued for the target while a send to it
        is in flight leaves in the next ``trans.commit_batch``
        (idempotent: participant commit processing tolerates
        re-delivery, so the RPC layer may resend it).  Returns once that
        batch is acked; raises :class:`RpcError` exactly as a solo
        ``trans.commit`` call would, so phase two's retry loop is
        unchanged."""
        pump = self._phase2.get(target)
        if pump is None:
            pump = self._phase2[target] = PiggybackPump(
                self.engine, self.site.process,
                functools.partial(self._send_commits, target),
                "phase2-batch:%s->%s" % (self.site.site_id, target))
        yield pump.join(tid)

    def _send_commits(self, target, tids):
        site = self.site
        tids = sorted(set(tids))
        obs = self.engine.obs
        span = obs.span("2pc.phase2_batch", site.site_id, target, len(tids))
        try:
            yield from twophase._call(site, target, MessageKinds.COMMIT_BATCH,
                                      {"tids": tids})
        except RpcError:
            obs.end(span, "unreachable")
            raise
        if len(tids) > 1:
            # Messages saved vs one trans.commit per txn.
            obs.incr(site.site_id, "commit.phase2.coalesced", len(tids) - 1)
        obs.end(span, "ok")


def _h_commit_batch(site, body, _src):
    """Coalesced phase two: several transactions' commit notifications
    in one message.  Message-handling CPU is charged once -- that
    amortization is half the point."""
    yield site.engine.charge(site.cost.instr(site.cost.trans_msg_instr))
    for tid in body["tids"]:
        yield from twophase.commit_participant(site, tid)
    return {"committed": len(body["tids"])}
