"""The syscall layer.

Programs are generator functions; the kernel runs each as a simulation
process and hands it a :class:`Syscalls` facade.  Every syscall:

* charges the trap/dispatch overhead (section 6.2 separates lock cost
  with and without syscall overhead);
* routes to the file's storage site -- directly when local, through the
  lightweight RPC protocol when remote (network transparency: the
  program cannot tell the difference except in time);
* for transaction processes, performs **implicit locking** at access
  time (section 3.1): reads take shared locks, writes exclusive locks,
  unless the requesting site's lock list already proves coverage
  (section 5.1).
"""

from __future__ import annotations

from repro.core.filelist import merge_file_list
from repro.locking import LockCancelled, LockConflict, LockMode
from repro.net import HEADER_BYTES, MessageKinds, RemoteError, SiteUnreachable
from repro.sim import Interrupt

from .errors import (
    AccessDenied,
    BadChannel,
    KernelError,
    NotWritable,
    ProcessError,
    TransactionAborted,
)
from .process import OsProcess

__all__ = ["Kernel", "Syscalls"]

#: Lock RPCs that may legitimately queue never time out; cancellation
#: arrives through the abort path, not the RPC timer.
_LOCK_RPC_TIMEOUT = float("inf")

#: Bytes shipped to spawn a process remotely / migrate one.
_SPAWN_IMAGE_BYTES = 2048
_MIGRATE_IMAGE_BYTES = 16384


class Kernel:
    """Cluster-wide syscall implementation (each call executes at the
    calling process's current site)."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.engine = cluster.engine
        self.config = cluster.config
        self.cost = cluster.config.cost

    # ------------------------------------------------------------------
    # process management
    # ------------------------------------------------------------------

    def spawn(self, program, args=(), site_id=None, parent=None, name=None,
              mix=None):
        """Create a process (top-level or child) and start its program.
        ``mix`` tags the process's workload mix (children inherit the
        parent's)."""
        if site_id is None:
            site_id = parent.site_id if parent else self.cluster.default_site_id
        site = self.cluster.site(site_id)
        if not site.up:
            raise KernelError("cannot spawn at down site %r" % (site_id,))
        proc = OsProcess(
            self.engine, self.cluster.pids.next(), site_id, parent=parent,
            name=name, mix=mix,
        )
        if parent is not None:
            proc.inherit_channels(parent)
            proc.inherit_transaction(parent)
            parent.children.append(proc)
            if parent.tid is not None:
                txn = self.cluster.txn_registry.get(parent.tid)
                if txn is not None:
                    txn.add_member(proc)
        self.cluster.procs[proc.pid] = proc
        site.procs[proc.pid] = proc
        gen = program(Syscalls(self, proc), *args)
        if not hasattr(gen, "__next__"):
            # A program that never yields is a plain function; treat its
            # return value as the immediate exit value.
            gen = _immediate(gen)
        proc.sim_proc = site.process(self._run_program(proc, gen), proc.name)
        return proc

    def _run_program(self, proc, gen):
        try:
            value = yield from gen
        except TransactionAborted as exc:
            proc.fail(exc)
        except Interrupt as exc:
            cause = exc.cause if isinstance(exc.cause, BaseException) else exc
            proc.fail(cause)
        except Exception as exc:  # noqa: BLE001 - any failure aborts the txn
            # "When any process within a transaction fails ... the entire
            # transaction must abort" (section 4.3).
            if proc.tid is not None:
                txn = self.cluster.txn_registry.get(proc.tid)
                if txn is not None and not txn.is_finished():
                    site = self.cluster.site(proc.site_id)
                    site.process(
                        site.txn_service.abort(
                            txn, reason="process %d failed: %s" % (proc.pid, exc)
                        ),
                        name="abort-on-failure",
                    )
            proc.fail(exc)
        else:
            try:
                yield from self._exit_cleanup(proc)
            except Exception as exc:  # noqa: BLE001 - cleanup failure = failure
                proc.fail(exc)
            else:
                proc.finish(value)
        finally:
            self.cluster.site(proc.site_id).procs.pop(proc.pid, None)

    def _exit_cleanup(self, proc):
        """Normal-exit duties: merge the file-list into the transaction's
        top-level process (section 4.1), close remaining channels."""
        if proc.tid is not None and not proc.is_txn_top_level:
            site = self.cluster.site(proc.site_id)
            yield from merge_file_list(site, proc)
        if proc.tid is not None and proc.is_txn_top_level and proc.nesting > 0:
            # A top-level process exiting mid-transaction is a failure.
            txn = self.cluster.txn_registry.get(proc.tid)
            if txn is not None and not txn.is_finished():
                service = self.cluster.site(proc.site_id).txn_service
                yield from service.abort(
                    txn, reason="top-level process %d exited inside the "
                    "transaction" % proc.pid, surviving=proc,
                )
            proc.tid = None
            proc.nesting = 0
        for fd in sorted(proc.channels):
            yield from self._close_channel(proc, fd, charge=False)

    # ------------------------------------------------------------------
    # file syscalls
    # ------------------------------------------------------------------

    def sys_open(self, proc, path, write=False, append=False):
        """Syscall backend for :meth:`Syscalls.open`."""
        return self._spanned(
            proc, self._sys_open(proc, path, write, append),
            "syscall.open", proc.pid, path)

    def _sys_open(self, proc, path, write, append):
        yield from self._syscall(proc)
        yield self.engine.charge(self.cost.instr(self.cost.open_instructions))
        info = self.cluster.namespace.lookup(path)
        if write or append:
            replica = info.primary
            info.open_for_update = True
        else:
            if getattr(info, "open_for_update", False):
                replica = info.primary  # update service centralizes reads too
            else:
                replica = info.replica_at(proc.site_id) or info.primary
        site = self.cluster.site(proc.site_id)
        if replica.site_id == proc.site_id:
            yield from site.do_open(replica.file_id)
        else:
            yield from site.rpc.call(
                replica.site_id, MessageKinds.FILE_OPEN,
                {"file_id": replica.file_id},
            )
        ch = proc.add_channel(
            path, replica.file_id, replica.site_id,
            writable=write or append, append=append,
        )
        self._note_file_use(proc, ch)
        return ch.fd

    def sys_close(self, proc, fd):
        """Syscall backend for :meth:`Syscalls.close`."""
        yield from self._syscall(proc)
        yield from self._close_channel(proc, fd, charge=False)

    def _close_channel(self, proc, fd, charge=True):
        if charge:
            yield from self._syscall(proc)
        ch = proc.channel(fd)
        if ch is None:
            return
        commit_dirty = proc.tid is None
        site = self.cluster.site(proc.site_id)
        try:
            if ch.storage_site == proc.site_id:
                yield from site.do_close(ch.file_id, proc.proc_holder(), commit_dirty)
            else:
                yield from site.rpc.call(
                    ch.storage_site, MessageKinds.FILE_CLOSE,
                    {
                        "file_id": ch.file_id,
                        "proc_owner": proc.proc_holder(),
                        "commit_dirty": commit_dirty,
                    },
                )
        except SiteUnreachable:
            pass  # storage site gone; its own failure handling cleans up
        if commit_dirty:
            site.lock_list.record_release(
                ch.file_id, proc.proc_holder(), 0, 2 ** 62
            )
        proc.drop_channel(fd)

    def sys_seek(self, proc, fd, offset):
        """Syscall backend for :meth:`Syscalls.seek`."""
        yield from self._syscall(proc)
        ch = self._channel(proc, fd)
        if offset < 0:
            raise KernelError("negative seek")
        ch.offset = offset
        return offset

    def sys_read(self, proc, fd, nbytes):
        """Syscall backend for :meth:`Syscalls.read` (implicit shared locking)."""
        return self._spanned(
            proc, self._sys_read(proc, fd, nbytes),
            "syscall.read", proc.pid, fd, nbytes)

    def _sys_read(self, proc, fd, nbytes):
        yield from self._syscall(proc)
        ch = self._channel(proc, fd)
        start = ch.offset
        if proc.tid is not None:
            yield from self._implicit_lock(proc, ch, start, start + nbytes, "shared")
        site = self.cluster.site(proc.site_id)
        holder = proc.holder()
        if ch.storage_site == proc.site_id:
            data = yield from site.do_read(
                ch.file_id, holder, proc.tid is not None, start, nbytes
            )
        elif nbytes > 0 and site.lock_list.covers(
            ch.file_id, holder, start, start + nbytes, want_write=False
        ) and (
            prefetched := site.prefetch_cache.read(
                ch.file_id, holder, start, start + nbytes
            )
        ) is not None:
            # Section 5.2 prefetch: the lock grant shipped these pages,
            # and the lock's coverage guarantees they are current.
            yield self.engine.charge(
                self.cost.instr(self.cost.read_write_instructions)
            )
            data = prefetched
            ch.offset = start + len(data)
            return data
        else:
            reply = yield from self._remote(
                site, ch.storage_site, MessageKinds.PAGE_READ,
                {
                    "file_id": ch.file_id, "accessor": holder,
                    "is_txn": proc.tid is not None,
                    "start": start, "nbytes": nbytes,
                },
            )
            data = reply["data"]
        ch.offset += len(data)
        return data

    def sys_write(self, proc, fd, data):
        """Syscall backend for :meth:`Syscalls.write` (implicit exclusive locking)."""
        return self._spanned(
            proc, self._sys_write(proc, fd, data),
            "syscall.write", proc.pid, fd, len(data))

    def _sys_write(self, proc, fd, data):
        yield from self._syscall(proc)
        ch = self._channel(proc, fd)
        if not ch.writable:
            raise NotWritable("channel %d is read-only" % fd)
        site = self.cluster.site(proc.site_id)
        if ch.append and proc.tid is None:
            # Plain O_APPEND behaviour for non-transaction writers: the
            # storage site appends atomically at the current EOF.
            start = None
        else:
            # Transaction writers on append channels use the range their
            # EOF-relative lock reserved (the pointer was positioned
            # there at grant time); ordinary channels write at the
            # pointer, taking the implicit exclusive lock (section 3.1).
            start = ch.offset
            if proc.tid is not None:
                yield from self._implicit_lock(
                    proc, ch, start, start + len(data), "exclusive"
                )
        if ch.storage_site == proc.site_id:
            rng = yield from site.do_write(
                ch.file_id, proc.pid, proc.tid,
                0 if start is None else start, data, append=start is None,
            )
        else:
            reply = yield from self._remote(
                site, ch.storage_site, MessageKinds.PAGE_WRITE,
                {
                    "file_id": ch.file_id, "pid": proc.pid, "tid": proc.tid,
                    "start": 0 if start is None else start, "data": data,
                    "append": start is None,
                },
                nbytes=HEADER_BYTES + len(data),
            )
            rng = reply["range"]
            # Keep any prefetched copy of the range coherent with our
            # own write (other holders cannot touch locked bytes).
            site.prefetch_cache.patch(ch.file_id, proc.holder(), rng[0], data)
        ch.offset = rng[1]
        self._note_file_use(proc, ch)
        return len(data)

    def sys_file_size(self, proc, fd):
        """Syscall backend for :meth:`Syscalls.file_size`."""
        yield from self._syscall(proc)
        ch = self._channel(proc, fd)
        site = self.cluster.site(proc.site_id)
        if ch.storage_site == proc.site_id:
            return site.do_file_size(ch.file_id)
        reply = yield from self._remote(
            site, ch.storage_site, MessageKinds.PAGE_READ,
            {
                "file_id": ch.file_id, "accessor": proc.holder(),
                "is_txn": True, "start": 0, "nbytes": 0,
            },
        )
        return reply["size"]

    def sys_commit_file(self, proc, fd):
        """Explicit record commit of the caller's (process-owned) dirty
        data -- what a non-transaction client uses instead of close."""
        return self._spanned(
            proc, self._sys_commit_file(proc, fd),
            "syscall.commit_file", proc.pid, fd)

    def _sys_commit_file(self, proc, fd):
        yield from self._syscall(proc)
        ch = self._channel(proc, fd)
        site = self.cluster.site(proc.site_id)
        owner = proc.proc_holder()
        if ch.storage_site == proc.site_id:
            state = site.update_state(ch.file_id)
            yield from state.commit(owner)
        else:
            # Requesting-site share of a remote commit: marshalling and
            # bookkeeping (Figure 6 measures ~7200 instructions here;
            # the flush/apply CPU runs at the storage site).
            yield self.engine.charge(
                self.cost.instr(self.cost.remote_commit_client_instr)
            )
            yield from self._remote(
                site, ch.storage_site, MessageKinds.FILE_COMMIT,
                {"file_id": ch.file_id, "owner": owner},
            )

    # ------------------------------------------------------------------
    # locking syscalls
    # ------------------------------------------------------------------

    def sys_lock(self, proc, fd, length, mode="exclusive", wait=True, nontrans=False):
        """The paper's Lock(file, length, mode): lock ``length`` bytes at
        the current file pointer (EOF-relative in append mode)."""
        return self._spanned(
            proc, self._sys_lock(proc, fd, length, mode, wait, nontrans),
            "syscall.lock", proc.pid, fd, mode)

    def _sys_lock(self, proc, fd, length, mode, wait, nontrans):
        yield from self._syscall(proc)
        ch = self._channel(proc, fd)
        if not ch.writable:
            raise NotWritable(
                "locking requires write access (section 3.1 policy)"
            )
        if mode not in ("shared", "exclusive", "unlock"):
            raise KernelError("bad lock mode %r" % (mode,))
        rng = yield from self._lock_call(
            proc, ch, length, mode, wait=wait, nontrans=nontrans, append=ch.append
        )
        if ch.append and mode != "unlock":
            # The EOF-relative lock positioned the effective range; move
            # the file pointer there so the caller writes into it.
            ch.offset = rng[0]
        self._note_file_use(proc, ch)
        return rng

    def _lock_call(self, proc, ch, length, mode, wait, nontrans, append):
        holder = proc.holder()
        start = ch.offset
        site = self.cluster.site(proc.site_id)
        if ch.storage_site == proc.site_id:
            rng = yield from site.do_lock(
                ch.file_id, holder, mode, start, length, nontrans, wait,
                append, proc_holder=proc.proc_holder(),
            )
        elif (site.leases is not None and not append and not nontrans
              and holder[0] == "txn"):
            rng = yield from site.leases.lock(
                self, proc, ch, holder, start, length, mode, wait)
        else:
            reply = yield from self.lock_rpc(
                proc, ch, site, holder, start, length, mode, wait,
                nontrans, append)
            rng = tuple(reply["range"])
        if mode == "unlock":
            site.lock_list.record_release(ch.file_id, holder, rng[0], rng[1])
            site.lock_list.record_release(
                ch.file_id, proc.proc_holder(), rng[0], rng[1]
            )
            site.prefetch_cache.drop_range(ch.file_id, holder, rng[0], rng[1])
            site.prefetch_cache.drop_range(
                ch.file_id, proc.proc_holder(), rng[0], rng[1]
            )
        else:
            site.lock_list.record_grant(ch.file_id, holder,
                                        LockMode[mode.upper()], rng[0], rng[1])
        return rng

    def lock_rpc(self, proc, ch, site, holder, start, length, mode, wait,
                 nontrans=False, append=False, **extra):
        """Generator: the lock request (plus ``extra`` body fields) to the
        storage site; keeps prefetched pages and returns the reply."""
        reply = yield from self._remote(
            site, ch.storage_site, MessageKinds.LOCK_REQUEST,
            {
                "file_id": ch.file_id, "holder": holder, "mode": mode,
                "start": start, "length": length, "nontrans": nontrans,
                "wait": wait, "append": append,
                "proc_holder": proc.proc_holder(), **extra,
            },
            timeout=_LOCK_RPC_TIMEOUT if wait else None,
        )
        if "prefetch" in reply:
            span_start, data = reply["prefetch"]
            site.prefetch_cache.store(ch.file_id, holder, span_start, data)
        return reply

    def _implicit_lock(self, proc, ch, start, end, mode):
        """Section 3.1: a transaction's accesses lock implicitly unless
        the requesting site's lock list already proves coverage -- by the
        transaction's own locks, or by locks the process acquired
        before BeginTrans (those stay valid inside the transaction but
        are never converted, section 3.4)."""
        if end <= start:
            return
        site = self.cluster.site(proc.site_id)
        want_write = mode == "exclusive"
        if site.lock_list.covers(ch.file_id, proc.holder(), start, end,
                                  want_write=want_write):
            return
        if proc.tid is not None and site.lock_list.covers(
            ch.file_id, proc.proc_holder(), start, end, want_write=want_write
        ):
            return  # pre-transaction lock still synchronizes this range
        saved = ch.offset
        ch.offset = start
        try:
            yield from self._lock_call(
                proc, ch, end - start, mode, wait=True, nontrans=False, append=False
            )
        finally:
            ch.offset = saved
        self._note_file_use(proc, ch)

    # ------------------------------------------------------------------
    # transaction syscalls
    # ------------------------------------------------------------------

    def sys_begin_trans(self, proc):
        """Syscall backend for :meth:`Syscalls.begin_trans`."""
        return self._spanned(
            proc, self._sys_begin_trans(proc), "syscall.begin_trans", proc.pid)

    def _sys_begin_trans(self, proc):
        yield from self._syscall(proc)
        service = self.cluster.site(proc.site_id).txn_service
        yield from service.begin(proc)

    def sys_end_trans(self, proc):
        """Syscall backend for :meth:`Syscalls.end_trans`."""
        return self._spanned(
            proc, self._sys_end_trans(proc), "syscall.end_trans", proc.pid)

    def _sys_end_trans(self, proc):
        yield from self._syscall(proc)
        service = self.cluster.site(proc.site_id).txn_service
        return (yield from service.end(proc))

    def sys_abort_trans(self, proc):
        """Syscall backend for :meth:`Syscalls.abort_trans`."""
        yield from self._syscall(proc)
        service = self.cluster.site(proc.site_id).txn_service
        yield from service.abort_call(proc)

    # ------------------------------------------------------------------
    # process syscalls
    # ------------------------------------------------------------------

    def sys_fork(self, proc, program, args, site_id=None, name=None):
        """Syscall backend for :meth:`Syscalls.fork`."""
        yield from self._syscall(proc)
        yield self.engine.charge(self.cost.instr(self.cost.fork_instructions))
        target = proc.site_id if site_id is None else site_id
        if target != proc.site_id:
            if not self.cluster.network.reachable(proc.site_id, target):
                raise KernelError("site %r unreachable for remote spawn" % (target,))
            yield self.engine.timeout(self.cost.message_time(_SPAWN_IMAGE_BYTES))
        return self.spawn(program, args, site_id=target, parent=proc, name=name)

    def sys_wait(self, proc, child):
        """Syscall backend for :meth:`Syscalls.wait`."""
        yield from self._syscall(proc)
        if child.parent is not proc:
            raise ProcessError("pid %d is not a child of pid %d" % (child.pid, proc.pid))
        if child.alive:
            yield child.exit_event
        if child.failed:
            raise ProcessError(
                "child %d failed: %s" % (child.pid, child.exit_value)
            )
        return child.exit_value

    def sys_migrate(self, proc, target):
        """Process migration with the in-transit marking of section 4.1."""
        yield from self._syscall(proc)
        if target == proc.site_id:
            return
        if not self.cluster.network.reachable(proc.site_id, target):
            raise KernelError("site %r unreachable for migration" % (target,))
        yield self.engine.charge(self.cost.instr(self.cost.migrate_instructions))
        source = self.cluster.site(proc.site_id)
        proc.in_transit = True
        try:
            yield self.engine.timeout(self.cost.message_time(_MIGRATE_IMAGE_BYTES))
            if not self.cluster.site(target).up:
                raise KernelError("site %r went down during migration" % (target,))
            source.procs.pop(proc.pid, None)
            proc.site_id = target
            self.cluster.site(target).procs[proc.pid] = proc
            self.cluster.site(target).own(proc.sim_proc)
        finally:
            proc.in_transit = False

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def _syscall(self, proc):
        yield self.engine.charge(self.cost.instr(self.cost.syscall_instructions))

    def _spanned(self, proc, gen, name, *values):
        """A syscall body, run inside the span ``name`` (declared fields
        ``values``) at the process's site when the run is observed
        (``cluster.obs``).  A plain run gets the body itself, without a
        delegating generator frame per syscall.  A pure observer: either
        way no virtual time is charged."""
        if self.cluster.obs is None:
            return gen
        return self._in_span(proc, gen, name, values)

    def _in_span(self, proc, gen, name, values):
        obs = self.engine.obs
        span = obs.span(name, proc.site_id, *values)
        try:
            result = yield from gen
        except BaseException as exc:
            obs.end(span, type(exc).__name__)
            raise
        obs.end(span, "ok")
        return result

    def _channel(self, proc, fd):
        ch = proc.channel(fd)
        if ch is None:
            raise BadChannel("no channel %r" % (fd,))
        return ch

    def _note_file_use(self, proc, ch):
        if proc.tid is not None:
            proc.file_list.add((ch.file_id[0], ch.file_id[1], ch.storage_site))

    def _remote(self, site, target, kind, body, nbytes=HEADER_BYTES, timeout=None):
        """RPC with kernel-error translation back to local exceptions."""
        try:
            reply = yield from site.rpc.call(
                target, kind, body, nbytes=nbytes, timeout=timeout
            )
            return reply
        except RemoteError as exc:
            text = str(exc)
            if text.startswith("AccessDenied"):
                raise AccessDenied(text)
            if text.startswith("LockConflict"):
                raise LockConflict([])
            if text.startswith("LockCancelled") or "TransactionAborted" in text:
                raise LockCancelled(text)
            raise


def _immediate(value):
    """A generator that finishes at once with ``value``."""
    return value
    yield  # pragma: no cover - makes this function a generator


class Syscalls:
    """The facade handed to programs: ``def prog(sys): yield from sys.open(...)``."""

    def __init__(self, kernel, proc):
        self._kernel = kernel
        self._proc = proc

    # -- identity and time ----------------------------------------------

    @property
    def pid(self):
        return self._proc.pid

    @property
    def site_id(self):
        return self._proc.site_id

    @property
    def now(self):
        return self._kernel.engine.now

    @property
    def in_transaction(self):
        return self._proc.tid is not None

    @property
    def tid(self):
        return self._proc.tid

    def sleep(self, seconds):
        """Wait ``seconds`` of virtual time (latency, not CPU)."""
        yield self._kernel.engine.timeout(seconds)

    def compute(self, instructions):
        """Model application CPU work."""
        yield self._kernel.engine.charge(
            self._kernel.cost.instr(instructions)
        )

    # -- files ------------------------------------------------------------

    def open(self, path, write=False, append=False):
        """Open ``path``; returns a channel number (name mapping happens once here, section 3.2)."""
        return self._kernel.sys_open(self._proc, path, write=write, append=append)

    def close(self, fd):
        """Close a channel (a non-transaction's dirty records commit here)."""
        return self._kernel.sys_close(self._proc, fd)

    def read(self, fd, nbytes):
        """Read ``nbytes`` at the file pointer (implicit shared lock inside a transaction)."""
        return self._kernel.sys_read(self._proc, fd, nbytes)

    def write(self, fd, data):
        """Write ``data`` at the file pointer (implicit exclusive lock inside a transaction)."""
        return self._kernel.sys_write(self._proc, fd, data)

    def seek(self, fd, offset):
        """Position the file pointer."""
        return self._kernel.sys_seek(self._proc, fd, offset)

    def file_size(self, fd):
        """Current (working) size of the open file."""
        return self._kernel.sys_file_size(self._proc, fd)

    def commit_file(self, fd):
        """Commit the caller's process-owned dirty records now."""
        return self._kernel.sys_commit_file(self._proc, fd)

    # -- locking -----------------------------------------------------------

    def lock(self, fd, length, mode="exclusive", wait=True, nontrans=False):
        """Lock(file, length, mode) at the file pointer; EOF-relative in append mode (section 3.2)."""
        return self._kernel.sys_lock(
            self._proc, fd, length, mode=mode, wait=wait, nontrans=nontrans
        )

    def unlock(self, fd, length):
        """Unlock ``length`` bytes at the file pointer (a transaction's lock is retained, rule 1)."""
        return self._kernel.sys_lock(self._proc, fd, length, mode="unlock")

    # -- transactions --------------------------------------------------------

    def begin_trans(self):
        """BeginTrans: enter (or nest into) a transaction (section 2)."""
        return self._kernel.sys_begin_trans(self._proc)

    def end_trans(self):
        """EndTrans: unnest; at the top level, run two-phase commit."""
        return self._kernel.sys_end_trans(self._proc)

    def abort_trans(self):
        """AbortTrans: undo the whole transaction; the caller survives."""
        return self._kernel.sys_abort_trans(self._proc)

    # -- processes ----------------------------------------------------------

    def fork(self, program, *args, site=None, name=None):
        """Create a child process running ``program``, optionally at another site."""
        return self._kernel.sys_fork(
            self._proc, program, args, site_id=site, name=name
        )

    def wait(self, child):
        """Wait for a child process to finish; returns its value."""
        return self._kernel.sys_wait(self._proc, child)

    def migrate(self, site_id):
        """Move this process to another site (section 4.1)."""
        return self._kernel.sys_migrate(self._proc, site_id)
