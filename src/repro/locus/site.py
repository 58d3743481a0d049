"""A Locus site: volumes, caches, lock manager, transaction service,
message handlers, and crash/reboot behaviour.

What survives a crash: the volumes (disks) including inode tables,
coordinator and prepare log *contents*.  What dies: every in-core
structure -- working buffers (:class:`OpenFileState`), lock lists, lock
caches, the buffer cache, prepared-transaction tables, and all local
processes.
"""

from __future__ import annotations

import functools

from repro.core import TransactionService
from repro.core.filelist import handle_filelist_merge
from repro.core.recovery import run_recovery
from repro.core.twophase import (
    Phase2Coalescer,
    abort_participant,
    commit_participant,
    coordinator_status,
    prepare_participant,
)
from repro.locking import (
    LeaseCache,
    LeaseRecalled,
    LeaseRegistry,
    LockCache,
    LockManager,
    LockMode,
)
from repro.net import MessageKinds, RpcEndpoint, RpcError
from repro.rangeset import RangeSet
from repro.sim import AllOf
from repro.storage import (
    BufferCache,
    GroupCommitScheduler,
    LogFile,
    OpenFileState,
    Volume,
)

from .errors import AccessDenied, KernelError

__all__ = ["Site", "SiteCrashed"]


class SiteCrashed(KernelError):
    """Delivered to processes killed by their site crashing."""


def _merge_sorted(storage, lease):
    """Union of the two lock managers' sorted, duplicate-free exports;
    the lease-local one is empty unless lock caching is on."""
    if not lease:
        return storage
    return sorted(set(storage).union(lease))


class Site:
    """One machine in the cluster."""

    def __init__(self, cluster, site_id, volume_names=("root",)):
        self.cluster = cluster
        self.engine = cluster.engine
        self.config = cluster.config
        self.cost = cluster.config.cost
        self.site_id = site_id
        self.up = True

        self.cache = BufferCache(self.config.buffer_cache_pages)
        self.volumes = {}
        self._volume_order = []
        for name in volume_names:
            self.add_volume(name)

        self.rpc = RpcEndpoint(
            self.engine, cluster.network, site_id,
            timeout=self.config.rpc_timeout,
            retries=getattr(self.config, "rpc_idempotent_retries", 0),
        )
        # Group-commit schedulers, one per disk, shared by every log on
        # that disk (docs/COMMIT_BATCHING.md).  Only populated when
        # commit_batching is on; log forces go direct otherwise.
        self._log_schedulers = {}
        self.coordinator_log = LogFile(
            self.engine, self.cost, self.root_volume, "coordinator",
            optimized=self.config.optimized_log_writes,
            scheduler=self.log_scheduler(self.root_volume),
        )
        self._prepare_logs = {}

        self._reset_incore()
        self.txn_service = TransactionService(self)
        self._register_handlers()

    # ------------------------------------------------------------------
    # volumes and logs
    # ------------------------------------------------------------------

    def add_volume(self, name) -> Volume:
        """Mount an additional volume at this site."""
        vol_id = "%s:%s" % (self.site_id, name)
        if vol_id in self.volumes:
            raise KernelError("volume %s exists" % vol_id)
        vol = Volume(
            self.engine, self.cost, vol_id, name=vol_id, cache=self.cache,
            max_direct=self.config.max_direct_pointers, site=self.site_id,
        )
        self.volumes[vol_id] = vol
        self._volume_order.append(vol_id)
        return vol

    @property
    def root_volume(self) -> Volume:
        return self.volumes[self._volume_order[0]]

    def volume_of(self, file_id) -> Volume:
        """The local volume holding ``file_id`` (raises if remote)."""
        vol = self.volumes.get(file_id[0])
        if vol is None:
            raise KernelError(
                "file %r is not stored at site %r" % (file_id, self.site_id)
            )
        return vol

    def prepare_log(self, vol_id) -> LogFile:
        """The per-volume prepare log (section 4.4: logs live on the
        same medium as the files they describe)."""
        log = self._prepare_logs.get(vol_id)
        if log is None:
            volume = self.volumes[vol_id]
            log = LogFile(
                self.engine, self.cost, volume, "prepare",
                optimized=self.config.optimized_log_writes,
                scheduler=self.log_scheduler(volume),
            )
            self._prepare_logs[vol_id] = log
        return log

    def log_scheduler(self, volume):
        """The group-commit scheduler for ``volume``'s disk, or None
        when commit_batching is off (forces then go straight to the
        disk, byte-identical to the unbatched system)."""
        if not getattr(self.config, "commit_batching", False):
            return None
        disk = volume.disk
        sched = self._log_schedulers.get(disk.name)
        if sched is None:
            sched = GroupCommitScheduler(self.engine, disk, site=self.site_id)
            self._log_schedulers[disk.name] = sched
        return sched

    # ------------------------------------------------------------------
    # in-core state
    # ------------------------------------------------------------------

    def _reset_incore(self):
        self.lock_manager = LockManager(self.engine, self.cost,
                                        site_id=self.site_id)
        self.lock_cache = LockCache()
        # Lease-based lock caching (docs/LOCK_CACHE.md).  The registry
        # (storage side) exists only when the feature is on; the lease
        # manager and cache (using side) are always present but inert
        # without it, so every code path can reference them.
        if getattr(self.config, "lock_cache", False):
            self.lock_manager.leases = LeaseRegistry(
                duration=self.config.lock_cache_lease,
            )
        self.lease_manager = LockManager(self.engine, self.cost,
                                         site_id=self.site_id, role="lease")
        self.lease_cache = LeaseCache()
        # Phase-2 coalescing (docs/COMMIT_BATCHING.md): in-core queues,
        # so a crash drops them -- recovery replays from the logs.
        if getattr(self.config, "commit_batching", False):
            self.phase2 = Phase2Coalescer(self)
        else:
            self.phase2 = None
        self.update_states = {}   # file_id -> OpenFileState
        self.open_refs = {}       # file_id -> int
        self.prepared = {}        # tid -> [IntentionsList]
        self.prepared_coordinator = {}
        self.procs = {}           # pid -> OsProcess resident here
        self.repl_staging = {}    # (vol_id, ino) -> {page_index: block}
        from repro.fs.prefetch import PrefetchCache

        self.prefetch_cache = PrefetchCache()

    def update_state(self, file_id) -> OpenFileState:
        """The in-core update state of a locally stored file (created on
        demand; registered with the lock manager for rule 2)."""
        state = self.update_states.get(file_id)
        if state is None:
            volume = self.volume_of(file_id)
            state = OpenFileState(
                self.engine, self.cost, volume, file_id[1],
                keep_clean_copies=getattr(self.config, "keep_clean_copies", False),
            )
            self.update_states[file_id] = state
            self.lock_manager.register_file_state(file_id, state)
        return state

    def maybe_drop_state(self, file_id):
        """Drop an idle, unreferenced update state."""
        state = self.update_states.get(file_id)
        if state is None:
            return
        if self.open_refs.get(file_id, 0) <= 0 and state.is_idle():
            if self.lock_manager.table(file_id).is_empty():
                del self.update_states[file_id]
                self.lock_manager.forget_file(file_id)

    # ------------------------------------------------------------------
    # storage-site operations (used locally and by RPC handlers)
    # ------------------------------------------------------------------

    def do_open(self, file_id):
        """Generator: register an open; returns the working size."""
        state = self.update_state(file_id)
        self.open_refs[file_id] = self.open_refs.get(file_id, 0) + 1
        return state.size
        yield  # pragma: no cover - keeps this a generator

    def do_close(self, file_id, proc_owner, commit_dirty):
        """Generator: deregister an open.  A non-transaction closer's
        dirty records are committed (the base system's atomic file
        update on close) and its locks on the file released."""
        state = self.update_states.get(file_id)
        if state is not None and commit_dirty:
            if state.has_dirty(proc_owner):
                yield from state.commit(proc_owner)
            self.lock_manager.release_holder_on_file(file_id, proc_owner)
        self.open_refs[file_id] = max(0, self.open_refs.get(file_id, 1) - 1)
        self.maybe_drop_state(file_id)

    def do_lock(self, file_id, holder, mode, start, length, nontrans, wait, append,
                proc_holder=None, want_prefetch=False):
        """Generator: lock (or unlock) a byte range at the storage site.

        Append-mode requests resolve relative to end-of-file and extend
        the file atomically (section 3.2, footnote 2).  For unlocks by a
        transaction, ``proc_holder`` lets the same request also release
        the process's own pre-transaction locks in the range (those are
        exempt from two-phase locking, section 3.4)."""
        state = self.update_state(file_id)
        if append and mode != "unlock":
            # Read EOF and reserve the extension in one step -- no yield
            # between them, so concurrent appenders can never see the
            # same end-of-file (the footnote-2 livelock/overlap race).
            start = state.size
            end = start + length
            state.reserve_extent(holder, end)
        else:
            if append:
                start = state.size
            end = start + length
        if mode != "unlock":
            # Leased ranges are arbitrated at the leaseholder; recall
            # any conflicting lease before consulting the local table.
            yield from self.recall_leases(file_id, start, end)
        if mode == "unlock":
            yield from self.lock_manager.unlock_auto(file_id, holder, start, end)
            if (
                proc_holder is not None
                and proc_holder != holder
                and self.lock_manager.table(file_id).is_locked_by(
                    proc_holder, start, end
                )
            ):
                # Also release the process's own pre-transaction locks
                # in the range (section 3.4's second method).
                yield from self.lock_manager.unlock_auto(
                    file_id, proc_holder, start, end
                )
            return (start, end)
        lock_mode = LockMode.EXCLUSIVE if mode == "exclusive" else LockMode.SHARED
        # SystemConfig.lock_timeout bounds only *transaction* waits (a
        # timed-out wait aborts the transaction with a "lock_timeout"
        # provenance cause); 0.0 -- the default -- waits forever, the
        # paper's behavior.
        lock_timeout = self.config.lock_timeout
        yield from self.lock_manager.lock(
            file_id, holder, lock_mode, start, end, nontrans=nontrans, wait=wait,
            timeout=(
                lock_timeout
                if lock_timeout > 0 and wait and not nontrans
                and holder[0] == "txn"
                else None
            ),
        )
        if want_prefetch and self.config.prefetch_on_lock:
            span = yield from state.page_span_image(start, end)
            return (start, end, span)
        return (start, end)

    def do_read(self, file_id, accessor_holder, is_txn, start, nbytes):
        """Generator: read at the storage site.  Non-transaction readers
        get the Figure 1 Unix-row check; transaction readers were
        already locked by the kernel's implicit-locking step."""
        state = self.update_state(file_id)
        if not is_txn:
            yield from self.recall_leases(file_id, start, start + max(nbytes, 1))
            blockers = self.lock_manager.unix_access_blockers(
                file_id, accessor_holder, False, start, start + max(nbytes, 1)
            )
            if blockers:
                raise AccessDenied(
                    "read [%d,%d) blocked by %s" % (start, start + nbytes, blockers)
                )
        data = yield from state.read(start, nbytes)
        return data

    def do_write(self, file_id, pid, tid, start, data, append=False):
        """Generator: write at the storage site, attributing the bytes
        to the right owner (transaction, or process when covered by a
        non-transaction lock, section 3.4)."""
        state = self.update_state(file_id)
        if append:
            start = state.size
        end = start + len(data)
        if tid is None:
            yield from self.recall_leases(file_id, start, end)
            blockers = self.lock_manager.unix_access_blockers(
                file_id, ("proc", pid), True, start, end
            )
            if blockers:
                raise AccessDenied(
                    "write [%d,%d) blocked by %s" % (start, end, blockers)
                )
        owner = self.lock_manager.write_attribution(file_id, pid, tid, start, end)
        yield from state.write(owner, start, data)
        return (start, end)

    def do_file_size(self, file_id):
        """Working size of a locally stored file."""
        return self.update_state(file_id).size

    # ------------------------------------------------------------------
    # lock-cache leases (docs/LOCK_CACHE.md)
    # ------------------------------------------------------------------

    def grant_lease(self, file_id, origin, holder, mode, nontrans, start, end):
        """Storage side: try to lease the covering range of a lock just
        granted to remote site ``origin``; returns (lo, hi, expiry) or
        None.  Only exclusive transaction locks carry leases: a lease is
        exclusive *authority* over the range, which a shared or
        non-transaction grant does not justify."""
        registry = self.lock_manager.leases
        if registry is None or nontrans or mode != "exclusive":
            return None
        if holder[0] != "txn":
            return None
        granted = registry.grant(
            file_id, origin, holder, start, end, self.engine.now,
            self.lock_manager,
        )
        obs = self.engine.obs
        if granted is not None and obs is not None:
            lo, hi, expiry = granted
            obs.event("lease.grant", site_id=self.site_id, file_id=file_id,
                      using_site=origin, lo=lo, hi=hi, expiry=expiry,
                      registry=registry)
        return granted

    def recall_leases(self, file_id, start, end):
        """Generator: invalidate every lease conflicting with
        ``[start, end)`` and wait until the range is back under this
        (storage) site's sole authority.  Concurrent conflicting
        requests share one callback per lease."""
        registry = self.lock_manager.leases
        if registry is None:
            return
        while True:
            conflicting = registry.conflicting(file_id, start, end)
            if not conflicting:
                return
            events = []
            for lease in conflicting:
                if lease.recall_event is None:
                    lease.recall_event = self.engine.event()
                    self.engine.process(
                        self._recall_one(file_id, lease),
                        name="lease-recall:%s->%s" % (self.site_id, lease.site_id),
                    )
                events.append(lease.recall_event)
            yield AllOf(self.engine, events)

    def _recall_one(self, file_id, lease):
        """Generator (system process): one invalidation callback.  If the
        leaseholder is unreachable even after the idempotent retry, the
        lease is only overridden once its term has expired -- past that
        point the holder no longer grants from it (shared clock; in a
        real system, bounded drift)."""
        registry = self.lock_manager.leases
        event = lease.recall_event
        obs = self.engine.obs
        started = self.engine.now
        try:
            try:
                reply = yield from self.rpc.call(
                    lease.site_id, MessageKinds.LEASE_RECALL,
                    {"file_id": file_id, "ranges": list(lease.ranges.runs)},
                )
            except RpcError:
                remaining = lease.expiry - self.engine.now
                if (registry.lease_of(file_id, lease.site_id) is lease
                        and remaining > 0):
                    yield self.engine.timeout(remaining)
            else:
                self.lock_manager.install_remote_locks(
                    file_id, reply.get("locks", ())
                )
            registry.drop(file_id, lease.site_id)
            if obs is not None:
                obs.event("lease.recalled", site_id=self.site_id,
                          file_id=file_id, using_site=lease.site_id,
                          registry=self.lock_manager.leases)
                obs.incr(self.site_id, "lock.cache.recall")
                obs.observe(self.site_id, "lock.cache.recall",
                            self.engine.now - started)
        finally:
            lease.recall_event = None
            if not event.triggered:
                event.succeed(True)

    def surrender_lease(self, file_id):
        """Using side: give a lease back.  Queued lease-local waiters
        are failed (they retry through the storage site); lock state the
        storage site has never seen -- everything beyond the mirrored
        grants -- is packaged for the recall reply; then all local lease
        state for the file is dropped."""
        self.lease_manager.fail_waiters(
            file_id, LeaseRecalled("lease on %r recalled" % (file_id,))
        )
        mirrored = self.lease_cache.mirrored_of(file_id)
        records = []
        for rec in self.lease_manager.table(file_id).records():
            known = mirrored.get(rec.holder, RangeSet())
            novel = rec.ranges.difference(known)
            if not novel:
                continue
            retained = rec.retained.intersection(novel)
            records.append((
                rec.holder, rec.mode.name, rec.nontrans,
                list(novel.runs), list(retained.runs),
            ))
        obs = self.engine.obs
        if obs is not None:
            # Announced while the lease-local table is still intact, so
            # the shipped records can be audited against it.
            obs.event("lease.surrender", site_id=self.site_id,
                      file_id=file_id, records=tuple(records),
                      table=self.lease_manager.table(file_id))
        self.lease_manager.forget_file(file_id)
        self.lease_cache.drop_file(file_id)
        self.lease_cache.stats["recalls"] += 1
        return records

    def release_lease_locks(self, holder):
        """Drop a finished holder's lease-local locks and mirror
        bookkeeping (commit/abort cleanup; the leases themselves stay,
        which is the whole point -- the next transaction's first lock on
        a leased range is served locally)."""
        self.lease_manager.release_holder(holder)
        self.lease_cache.drop_holder(holder)

    def wait_edges(self):
        """Wait-for edges from both the storage-site table and the
        lease-local one (a lease-local wait is as deadlock-capable as a
        remote one, section 3.1)."""
        return _merge_sorted(self.lock_manager.wait_edges(),
                             self.lease_manager.wait_edges())

    def wait_edge_details(self):
        """(waiter, blocker, file_id, start, end, seq) over both lock
        managers -- pure observability reader (abort provenance), never
        shipped on the simulated network."""
        return (self.lock_manager.wait_edge_details()
                + self.lease_manager.wait_edge_details())

    def waiting_holders(self):
        """Holders queued at either lock manager."""
        return _merge_sorted(self.lock_manager.waiting_holders(),
                             self.lease_manager.waiting_holders())

    def cancel_waits(self, holder, exc):
        """Fail a holder's queued requests at both lock managers."""
        self.lock_manager.cancel_waits(holder, exc)
        self.lease_manager.cancel_waits(holder, exc)

    # ------------------------------------------------------------------
    # RPC handlers
    # ------------------------------------------------------------------

    def _register_handlers(self):
        reg = self.rpc.register
        reg(MessageKinds.LOCK_REQUEST, functools.partial(_h_lock, self))
        reg(MessageKinds.LOCK_RELEASE, functools.partial(_h_unlock, self))
        reg(MessageKinds.LEASE_RECALL, functools.partial(_h_lease_recall, self))
        reg(MessageKinds.FILE_OPEN, functools.partial(_h_open, self))
        reg(MessageKinds.FILE_CLOSE, functools.partial(_h_close, self))
        reg(MessageKinds.PAGE_READ, functools.partial(_h_read, self))
        reg(MessageKinds.PAGE_WRITE, functools.partial(_h_write, self))
        reg(MessageKinds.FILE_COMMIT, functools.partial(_h_commit_file, self))
        reg(MessageKinds.PREPARE, functools.partial(_h_prepare, self))
        reg(MessageKinds.COMMIT, functools.partial(_h_commit, self))
        reg(MessageKinds.COMMIT_BATCH, functools.partial(_h_commit_batch, self))
        reg(MessageKinds.ABORT, functools.partial(_h_abort, self))
        reg(MessageKinds.TXN_STATUS, functools.partial(_h_status, self))
        reg(MessageKinds.FILELIST_MERGE, functools.partial(handle_filelist_merge, self))
        reg(MessageKinds.WAITFOR_QUERY, functools.partial(_h_waitfor, self))
        from repro.core.treecommit import TREE_PREPARE, handle_tree_prepare

        reg(TREE_PREPARE, functools.partial(handle_tree_prepare, self))
        from repro.fs.replication import register_handlers as _register_repl

        _register_repl(self)

    # ------------------------------------------------------------------
    # failure and recovery
    # ------------------------------------------------------------------

    def crash(self):
        """Power off: every process dies, every in-core structure is
        lost; disks (and their logs) survive."""
        if not self.up:
            return
        self.up = False
        obs = self.engine.obs
        if obs is not None:
            obs.event("site.crash", site_id=self.site_id)
        for proc in list(self.procs.values()):
            if proc.sim_proc is not None:
                proc.sim_proc.kill()
            proc.fail(SiteCrashed("site %r crashed" % self.site_id))
        self.rpc.stop()
        self.cluster.network.crash_site(self.site_id)
        for volume in self.volumes.values():
            volume.disk.power_off()
        self.cache.clear()
        self._reset_incore()

    def reboot(self, recover=True):
        """Power on; transaction recovery runs before anything else
        (section 4.4).  Returns the recovery process (or None)."""
        if self.up:
            return None
        self.up = True
        obs = self.engine.obs
        if obs is not None:
            obs.event("site.recover", site_id=self.site_id)
        self.cluster.network.restart_site(self.site_id)
        self.rpc.restart()
        if recover:
            return self.engine.process(
                run_recovery(self), name="recovery@%s" % self.site_id
            )
        return None

    def __repr__(self):
        return "<Site %r %s>" % (self.site_id, "up" if self.up else "down")


# ----------------------------------------------------------------------
# handler bodies (module-level so they read as the site's protocol spec)
# ----------------------------------------------------------------------

def _h_lock(site, body, _src):
    file_id = tuple(body["file_id"])
    result = yield from site.do_lock(
        file_id, body["holder"], body["mode"], body["start"],
        body["length"], body["nontrans"], body["wait"], body["append"],
        proc_holder=body.get("proc_holder"), want_prefetch=True,
    )
    nbytes = None
    if len(result) == 3:
        start, end, (span_start, data) = result
        from repro.net import HEADER_BYTES

        reply = {"range": (start, end), "prefetch": (span_start, data)}
        nbytes = HEADER_BYTES + len(data)
    else:
        start, end = result
        reply = {"range": result}
    if body.get("lease"):
        lease = site.grant_lease(
            file_id, _src, body["holder"], body["mode"], body["nontrans"],
            start, end,
        )
        if lease is not None:
            reply["lease"] = lease
    return reply if nbytes is None else (reply, nbytes)


def _h_unlock(site, body, _src):
    result = yield from site.do_lock(
        tuple(body["file_id"]), body["holder"], "unlock", body["start"],
        body["length"], False, True, body.get("append", False),
        proc_holder=body.get("proc_holder"),
    )
    return {"range": result}


def _h_open(site, body, _src):
    size = yield from site.do_open(tuple(body["file_id"]))
    return {"size": size}


def _h_close(site, body, _src):
    yield from site.do_close(
        tuple(body["file_id"]), tuple(body["proc_owner"]), body["commit_dirty"]
    )
    return {}


def _h_read(site, body, _src):
    data = yield from site.do_read(
        tuple(body["file_id"]), tuple(body["accessor"]), body["is_txn"],
        body["start"], body["nbytes"],
    )
    from repro.net import HEADER_BYTES

    size = site.do_file_size(tuple(body["file_id"]))
    return {"data": data, "size": size}, HEADER_BYTES + len(data)


def _h_write(site, body, _src):
    rng = yield from site.do_write(
        tuple(body["file_id"]), body["pid"], body["tid"], body["start"],
        body["data"], body.get("append", False),
    )
    return {"range": rng}


def _h_commit_file(site, body, _src):
    state = site.update_state(tuple(body["file_id"]))
    yield from state.commit(tuple(body["owner"]))
    return {}


def _h_prepare(site, body, _src):
    yield site.engine.charge(site.cost.instr(site.cost.trans_msg_instr))
    result = yield from prepare_participant(
        site, body["tid"], [tuple(f) for f in body["files"]], body["coordinator"]
    )
    # Lease refresh piggybacks on the prepare round trip: no separate
    # renewal messages on the commit path (docs/LOCK_CACHE.md).
    renewed = _refresh_leases(site, body, _src)
    if renewed:
        result = dict(result, lease_renewed=renewed)
    return result


def _refresh_leases(site, body, src):
    """Storage side of the lease-refresh piggyback: renew the leases a
    prepare or commit batch from ``src`` lists; returns the renewals."""
    registry = site.lock_manager.leases
    refresh = body.get("lease_refresh")
    renewed = []
    if registry is None or not refresh:
        return renewed
    obs = site.engine.obs
    for file_id in refresh:
        file_id = tuple(file_id)
        expiry = registry.refresh(file_id, src, site.engine.now)
        if expiry is not None:
            renewed.append((file_id, expiry))
            if obs is not None:
                obs.event("lease.renew", site_id=site.site_id,
                          file_id=file_id, using_site=src, expiry=expiry)
    return renewed


def _h_lease_recall(site, body, _src):
    """Invalidation callback: surrender the lease on a file, shipping
    back the lock state this (using) site accumulated under it."""
    yield site.engine.charge(site.cost.instr(site.cost.trans_msg_instr))
    locks = site.surrender_lease(tuple(body["file_id"]))
    return {"locks": locks}


def _h_commit(site, body, _src):
    yield site.engine.charge(site.cost.instr(site.cost.trans_msg_instr))
    return (yield from commit_participant(site, body["tid"]))


def _h_commit_batch(site, body, _src):
    """Coalesced phase two: several transactions' commit notifications
    in one message (docs/COMMIT_BATCHING.md).  Message-handling CPU is
    charged once -- that amortization is half the point; the ack also
    piggybacks the coordinator's lease refresh, like a prepare reply."""
    yield site.engine.charge(site.cost.instr(site.cost.trans_msg_instr))
    for tid in body["tids"]:
        yield from commit_participant(site, tid)
    result = {"committed": len(body["tids"])}
    renewed = _refresh_leases(site, body, _src)
    if renewed:
        result["lease_renewed"] = renewed
    return result


def _h_abort(site, body, _src):
    yield site.engine.charge(site.cost.instr(site.cost.trans_msg_instr))
    return (yield from abort_participant(site, body["tid"]))


def _h_status(site, body, _src):
    yield site.engine.charge(site.cost.instr(site.cost.trans_msg_instr))
    return {"status": coordinator_status(site, body["tid"])}


def _h_waitfor(site, body, _src):
    """Section 3.1's 'interface to operating system data': expose this
    kernel's wait-for edges to the deadlock-detector system process."""
    yield site.engine.charge(site.cost.instr(site.cost.trans_msg_instr))
    return {"edges": site.wait_edges()}
