"""Lease-based remote-lock caching (docs/LOCK_CACHE.md), an extension
of section 5.1, as one per-site layer.

With ``SystemConfig.lock_cache`` on, each site's ``leases`` is a
:class:`LeaseLayer` holding both halves of the protocol: as a storage
site, the lease registry, grants, recalls and renewals; as a using
site, the lease-local lock manager and lease cache.  With it off the
handle is None and this module is never imported; protocol code reaches
the layer only through ``site.leases is not None`` tests.
"""

from __future__ import annotations

import functools

from repro.core.transaction import TxnState
from repro.locking import LockManager, LockMode
from repro.locking.lease import LeaseCache, LeaseRecalled, LeaseRegistry
from repro.net import MessageKinds, RpcError
from repro.rangeset import RangeSet
from repro.sim import AllOf

__all__ = ["LeaseLayer"]


class LeaseLayer:
    """One site's share of the lease protocol, both sides."""

    def __init__(self, site):
        self.site = site
        self.engine = site.engine
        self.registry = LeaseRegistry(duration=site.config.lock_cache_lease)
        self.manager = LockManager(site.engine, site.cost,
                                   site_id=site.site_id, role="lease")
        self.cache = LeaseCache()

    # ------------------------------------------------------------------
    # storage side
    # ------------------------------------------------------------------

    def handlers(self, table):
        """The site's RPC handler table plus the lease protocol: grants
        on lock replies, renewals on prepare and batch replies, and the
        ``LEASE_RECALL`` callback."""
        table = dict(table)
        table[MessageKinds.LOCK_REQUEST] = functools.partial(
            _granting, table[MessageKinds.LOCK_REQUEST])
        for kind in (MessageKinds.PREPARE, MessageKinds.COMMIT_BATCH):
            if kind in table:  # COMMIT_BATCH: only with commit batching on
                table[kind] = functools.partial(_renewing, table[kind])
        table[MessageKinds.LEASE_RECALL] = _h_recall
        return table

    def grant(self, file_id, origin, holder, mode, nontrans, start, end):
        """Try to lease the covering range of a lock just granted to
        remote site ``origin``; returns (lo, hi, expiry) or None.  Only
        exclusive transaction locks carry leases: a lease is exclusive
        *authority* over the range, which a shared or non-transaction
        grant does not justify."""
        if nontrans or mode != "exclusive" or holder[0] != "txn":
            return None
        site = self.site
        granted = self.registry.grant(
            file_id, origin, holder, start, end, self.engine.now,
            site.lock_manager,
        )
        if granted is not None:
            lo, hi, expiry = granted
            self.engine.obs.event(
                "lease.grant", site_id=site.site_id, file_id=file_id,
                using_site=origin, lo=lo, hi=hi, expiry=expiry,
                registry=self.registry)
        return granted

    def recall(self, file_id, start, end):
        """Generator: invalidate every lease conflicting with
        ``[start, end)`` and wait until the range is back under this
        (storage) site's sole authority.  Concurrent conflicting
        requests share one callback per lease."""
        while True:
            conflicting = self.registry.conflicting(file_id, start, end)
            if not conflicting:
                return
            events = []
            for lease in conflicting:
                if lease.recall_event is None:
                    lease.recall_event = self.engine.event()
                    self.engine.process(
                        self._recall_one(file_id, lease),
                        name="lease-recall:%s->%s" % (self.site.site_id,
                                                      lease.site_id),
                    )
                events.append(lease.recall_event)
            yield AllOf(self.engine, events)

    def _recall_one(self, file_id, lease):
        """Generator (system process): one invalidation callback.  If the
        leaseholder is unreachable even after the idempotent retry, the
        lease is only overridden once its term has expired -- past that
        point the holder no longer grants from it (shared clock; in a
        real system, bounded drift).  Only the recalled lease is
        dropped: a holder that crashed and rebooted meanwhile may hold
        a fresh lease on the same file."""
        site, registry = self.site, self.registry
        event = lease.recall_event
        obs = self.engine.obs
        started = self.engine.now
        try:
            try:
                reply = yield from site.rpc.call(
                    lease.site_id, MessageKinds.LEASE_RECALL,
                    {"file_id": file_id, "ranges": list(lease.ranges.runs)},
                )
            except RpcError:
                remaining = lease.expiry - self.engine.now
                if (registry.lease_of(file_id, lease.site_id) is lease
                        and remaining > 0):
                    yield self.engine.timeout(remaining)
            else:
                site.lock_manager.install_remote_locks(
                    file_id, reply.get("locks", ()))
            if registry.lease_of(file_id, lease.site_id) is lease:
                registry.drop(file_id, lease.site_id)
            obs.event("lease.recalled", site_id=site.site_id,
                      file_id=file_id, using_site=lease.site_id,
                      registry=registry)
            obs.incr(site.site_id, "lock.cache.recall")
            obs.observe(site.site_id, "lock.cache.recall",
                        self.engine.now - started)
        finally:
            lease.recall_event = None
            if not event.triggered:
                event.succeed(True)

    def renew(self, files, src):
        """Renew the leases on ``files`` held by ``src`` (the refresh a
        prepare or commit batch carried); returns the renewals."""
        renewed = []
        obs = self.engine.obs
        for file_id in files or ():
            file_id = tuple(file_id)
            expiry = self.registry.refresh(file_id, src, self.engine.now)
            if expiry is not None:
                renewed.append((file_id, expiry))
                obs.event("lease.renew", site_id=self.site.site_id,
                          file_id=file_id, using_site=src, expiry=expiry)
        return renewed

    # ------------------------------------------------------------------
    # using side
    # ------------------------------------------------------------------

    def lock(self, kernel, proc, ch, holder, start, length, mode, wait):
        """Generator: a transaction's lock or unlock on a remote file,
        served from a covering lease at local-lock cost and zero
        messages, else sent to the storage site asking for a lease."""
        site, file_id = self.site, ch.file_id
        end = start + length
        obs = self.engine.obs
        if self.cache.covers(file_id, start, end, self.engine.now):
            if mode == "unlock":
                if not site.lock_list.holds_any(
                    file_id, proc.proc_holder(), start, end
                ):
                    yield from self.manager.unlock_auto(
                        file_id, holder, start, end)
                    self._hit(obs)
                    return (start, end)
                # The process holds pre-transaction locks here too; only
                # the storage site can release those (section 3.4).
            else:
                started = self.engine.now
                try:
                    yield from self.manager.lock(
                        file_id, holder, LockMode[mode.upper()], start, end,
                        nontrans=False, wait=wait,
                    )
                except LeaseRecalled:
                    pass  # recalled while queued: retry via the RPC path
                else:
                    self._hit(obs)
                    obs.observe(site.site_id, "lock.cache.local",
                                self.engine.now - started)
                    return (start, end)
        self.cache.stats["misses"] += 1
        obs.incr(site.site_id, "lock.cache.miss")
        reply = yield from kernel.lock_rpc(
            proc, ch, site, holder, start, length, mode, wait, lease=True)
        rng = tuple(reply["range"])
        if "lease" in reply:
            lo, hi, expiry = reply["lease"]
            self.cache.grant(file_id, ch.storage_site, lo, hi, expiry)
            self.manager.mirror_grant(file_id, holder, LockMode[mode.upper()],
                                      rng[0], rng[1])
            self.cache.note_mirrored(file_id, holder, rng[0], rng[1])
            # The storage site granted this lock itself, so a recall need
            # not report it back; announced so a surrender can be audited
            # against it independently.
            obs.event("lease.mirror", site_id=site.site_id, file_id=file_id,
                      holder=holder, lo=rng[0], hi=rng[1])
        return rng

    def _hit(self, obs):
        stats = self.cache.stats
        stats["hits"] += 1
        # A cached lock or unlock cycle skips one request/reply pair.
        stats["msgs_saved"] += 2
        obs.incr(self.site.site_id, "lock.cache.hit")
        obs.incr(self.site.site_id, "lock.cache.msgs_saved", 2)

    def call(self, target, kind, body):
        """Generator: ``rpc.call`` of a 2PC request on which the leases
        held from ``target`` ride out and their renewals ride back, so
        committing through a storage site keeps its leases warm."""
        leased = self.cache.files_from(target)
        if leased:
            body["lease_refresh"] = leased
        reply = yield from self.site.rpc.call(target, kind, body)
        renewed = reply.get("lease_renewed") or ()
        for file_id, expiry in renewed:
            self.cache.renew(tuple(file_id), expiry)
        if renewed:
            self.cache.stats["refreshes"] += len(renewed)
            self.engine.obs.incr(self.site.site_id, "lock.cache.refresh",
                                 len(renewed))
        return reply

    def surrender(self, file_id):
        """Give a lease back: fail the queued lease-local waiters (they
        retry through the storage site), package the lock state the
        storage site has never seen for the recall reply, and drop all
        local lease state for the file."""
        self.manager.fail_waiters(
            file_id, LeaseRecalled("lease on %r recalled" % (file_id,)))
        mirrored = self.cache.mirrored_of(file_id)
        table = self.manager.table(file_id)
        records = []
        for rec in table.records():
            known = mirrored.get(rec.holder, RangeSet())
            novel = rec.ranges.difference(known)
            if not novel:
                continue
            retained = rec.retained.intersection(novel)
            records.append((
                rec.holder, rec.mode.name, rec.nontrans,
                list(novel.runs), list(retained.runs),
            ))
        # Announced while the lease-local table is still intact, so the
        # shipped records can be audited against it.
        self.engine.obs.event(
            "lease.surrender", site_id=self.site.site_id, file_id=file_id,
            records=tuple(records), table=table)
        self.manager.forget_file(file_id)
        self.cache.drop_file(file_id)
        self.cache.stats["recalls"] += 1
        return records

    def release(self, holder):
        """Drop a finished holder's lease-local locks and mirror
        bookkeeping.  The leases themselves stay -- the next
        transaction's first lock on a leased range is served locally."""
        self.manager.release_holder(holder)
        self.cache.drop_holder(holder)

    def leave(self, txn, holder):
        """A process left ``txn``: once committed, release its lease-local
        locks at every site it ran on (not all are 2PC participants).
        Aborts release them after rollback, in the participant abort,
        so a lease-local grant never exposes pre-rollback data."""
        if txn is not None and txn.state not in (TxnState.COMMITTED,
                                                 TxnState.RESOLVED):
            return
        site_ids = {self.site.site_id}
        if txn is not None:
            site_ids.update(txn.member_sites())
        sites = self.site.cluster.sites
        for sid in site_ids:
            site = sites.get(sid)
            if site is not None and site.up:
                site.leases.release(holder)

    def expire(self, event):
        """A topology change: stop serving from leases whose storage site
        became unreachable, and forget the leases granted to a *crashed*
        site.  Leases granted across a mere partition are waited out --
        the recall path overrides them only past their expiry."""
        site = self.site
        me, network = site.site_id, site.cluster.network
        dropped = self.cache.drop_unreachable(
            lambda sid: network.reachable(me, sid))
        obs = self.engine.obs
        for file_id in dropped:
            obs.event("lease.drop", site_id=me, file_id=file_id)
            self.manager.fail_waiters(
                file_id,
                LeaseRecalled("lease on %r lost: storage unreachable"
                              % (file_id,)),
            )
            self.manager.forget_file(file_id)
        if event["type"] == "site_down":
            self.registry.drop_site(event["site"])


def _granting(base, site, body, src):
    """LOCK_REQUEST: the lock reply, plus a lease on the covering range
    when the requesting site asked for one."""
    result = yield from base(site, body, src)
    if body.get("lease"):
        reply = result[0] if isinstance(result, tuple) else result
        start, end = reply["range"]
        lease = site.leases.grant(
            tuple(body["file_id"]), src, body["holder"], body["mode"],
            body["nontrans"], start, end,
        )
        if lease is not None:
            reply["lease"] = lease
    return result


def _renewing(base, site, body, src):
    """PREPARE and COMMIT_BATCH: the reply, plus the renewals of the
    leases the coordinator listed."""
    result = yield from base(site, body, src)
    renewed = site.leases.renew(body.get("lease_refresh"), src)
    if renewed:
        result = dict(result, lease_renewed=renewed)
    return result


def _h_recall(site, body, _src):
    """Invalidation callback: surrender the lease on a file, shipping
    back the lock state this (using) site accumulated under it."""
    yield site.engine.charge(site.cost.instr(site.cost.trans_msg_instr))
    return {"locks": site.leases.surrender(tuple(body["file_id"]))}
