"""A Locus site: volumes, caches, lock manager, transaction service,
message handlers, and crash/reboot behaviour.

What survives a crash: the volumes (disks) including inode tables,
coordinator and prepare log *contents*.  What dies: every in-core
structure -- working buffers (:class:`OpenFileState`), lock lists, the
buffer cache, prepared-transaction tables, the lease layer when lock
caching is on, and all local processes.
"""

from __future__ import annotations

import functools

from repro.core import TransactionService
from repro.core.filelist import handle_filelist_merge
from repro.core.recovery import run_recovery
from repro.core.twophase import (
    abort_participant,
    commit_participant,
    coordinator_status,
    prepare_participant,
)
from repro.locking import LockCache, LockManager, LockMode
from repro.net import MessageKinds, RpcEndpoint
from repro.storage import BufferCache, LogFile, OpenFileState, Volume

from .errors import AccessDenied, KernelError

__all__ = ["Site", "SiteCrashed"]

#: Per-site LRU buffer cache capacity, in pages.
BUFFER_CACHE_PAGES = 256

#: Direct block pointers per inode.
MAX_DIRECT_POINTERS = 10


class SiteCrashed(KernelError):
    """Delivered to processes killed by their site crashing."""


class Site:
    """One machine in the cluster."""

    def __init__(self, cluster, site_id, volume_names=("root",)):
        self.cluster = cluster
        self.engine = cluster.engine
        self.config = cluster.config
        self.cost = cluster.config.cost
        self.site_id = site_id
        self.up = True

        self.cache = BufferCache(BUFFER_CACHE_PAGES)
        self.volumes = {}
        self._volume_order = []
        for name in volume_names:
            self.add_volume(name)

        self.rpc = RpcEndpoint(
            self.engine, cluster.network, site_id,
            timeout=self.config.rpc_timeout,
            retries=self.config.rpc_idempotent_retries,
        )
        # Commit batching (docs/COMMIT_BATCHING.md) is one layer that
        # exists only when the switch is on.
        self.batching = None
        if self.config.commit_batching:
            from .batching import BatchingLayer

            self.batching = BatchingLayer(self)
        self.coordinator_log = self._log(self.root_volume, "coordinator")
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
            max_direct=MAX_DIRECT_POINTERS, site=self.site_id,
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
            log = self._prepare_logs[vol_id] = self._log(
                self.volumes[vol_id], "prepare")
        return log

    def _log(self, volume, name):
        """A log on ``volume``; with batching on, its forces share writes."""
        log = LogFile(self.engine, self.cost, volume, name,
                      optimized=self.config.optimized_log_writes)
        if self.batching is not None:
            log.scheduler = self.batching.scheduler(volume.disk)
        return log

    # ------------------------------------------------------------------
    # in-core state
    # ------------------------------------------------------------------

    def _reset_incore(self):
        self.lock_manager = LockManager(self.engine, self.cost,
                                        site_id=self.site_id)
        self.lock_list = LockCache()  # section 5.1: this site's grants
        # Lease-based lock caching (docs/LOCK_CACHE.md) is one layer that
        # exists only when the switch is on.
        if self.config.lock_cache:
            from .leases import LeaseLayer

            self.leases = LeaseLayer(self)
        else:
            self.leases = None
        if self.batching is not None:
            self.batching.reset()
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
                keep_clean_copies=self.config.keep_clean_copies,
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
            yield from self._recall(file_id, start, end)
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
        yield from self.lock_manager.lock(
            file_id, holder, lock_mode, start, end, nontrans=nontrans, wait=wait)
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
            yield from self._recall(file_id, start, start + max(nbytes, 1))
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
            yield from self._recall(file_id, start, end)
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

    def _recall(self, file_id, start, end):
        """What to wait for before arbitrating ``[start, end)`` here: the
        recall of every conflicting lease (lock caching only)."""
        if self.leases is not None:
            return self.leases.recall(file_id, start, end)
        return ()

    def release_holder(self, holder):
        """Commit/abort at a participant: the holder's locks go."""
        self.lock_manager.release_holder(holder)
        self.lock_list.drop_holder(holder)
        if self.leases is not None:
            self.leases.release(holder)

    # ------------------------------------------------------------------
    # wait-for export (section 3.1); with lock caching, a lease-local
    # wait is as deadlock-capable as a remote one
    # ------------------------------------------------------------------

    def wait_edges(self):
        """(waiter, blocker) holder pairs queued at this kernel."""
        edges = self.lock_manager.wait_edges()
        if self.leases is not None:
            edges = sorted({*edges, *self.leases.manager.wait_edges()})
        return edges

    def wait_edge_details(self):
        """(waiter, blocker, file_id, start, end, seq) -- pure
        observability reader (abort provenance), never shipped on the
        simulated network."""
        details = self.lock_manager.wait_edge_details()
        if self.leases is not None:
            details += self.leases.manager.wait_edge_details()
        return details

    def waiting_holders(self):
        """Holders with a queued request at this kernel."""
        holders = self.lock_manager.waiting_holders()
        if self.leases is not None:
            holders = sorted({*holders, *self.leases.manager.waiting_holders()})
        return holders

    def cancel_waits(self, holder, exc):
        """Fail a holder's queued requests."""
        self.lock_manager.cancel_waits(holder, exc)
        if self.leases is not None:
            self.leases.manager.cancel_waits(holder, exc)

    # ------------------------------------------------------------------
    # RPC handlers
    # ------------------------------------------------------------------

    def _register_handlers(self):
        from repro.core.treecommit import TREE_PREPARE, handle_tree_prepare

        handlers = {
            MessageKinds.LOCK_REQUEST: _h_lock,
            MessageKinds.LOCK_RELEASE: _h_unlock,
            MessageKinds.FILE_OPEN: _h_open,
            MessageKinds.FILE_CLOSE: _h_close,
            MessageKinds.PAGE_READ: _h_read,
            MessageKinds.PAGE_WRITE: _h_write,
            MessageKinds.FILE_COMMIT: _h_commit_file,
            MessageKinds.PREPARE: _h_prepare,
            MessageKinds.COMMIT: _h_commit,
            MessageKinds.ABORT: _h_abort,
            MessageKinds.TXN_STATUS: _h_status,
            MessageKinds.FILELIST_MERGE: handle_filelist_merge,
            MessageKinds.WAITFOR_QUERY: _h_waitfor,
            TREE_PREPARE: handle_tree_prepare,
        }
        if self.batching is not None:
            handlers = self.batching.handlers(handlers)
        if self.leases is not None:
            handlers = self.leases.handlers(handlers)
        for kind, handler in handlers.items():
            self.rpc.register(kind, functools.partial(handler, self))
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
        self.engine.obs.event("site.crash", site_id=self.site_id)
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
        self.engine.obs.event("site.recover", site_id=self.site_id)
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
        reply = {"range": result}
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
    return (yield from prepare_participant(
        site, body["tid"], [tuple(f) for f in body["files"]], body["coordinator"]
    ))


def _h_commit(site, body, _src):
    yield site.engine.charge(site.cost.instr(site.cost.trans_msg_instr))
    return (yield from commit_participant(site, body["tid"]))


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
