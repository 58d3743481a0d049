"""The storage-site lock manager: granting, queueing, retention rules.

One :class:`LockManager` runs at each site and arbitrates locks for the
files *stored* there (centralization at the storage site is what makes
local locking cheap, section 6.2).  It implements:

* the Figure 1 compatibility check and FIFO queueing of blocked
  requests;
* **rule 1** (section 3.3): a transaction's unlock does not release --
  the lock is *retained* until the transaction commits or aborts, and
  any process of the transaction may reacquire it;
* **rule 2** (section 3.3): when a transaction locks a modified-but-
  uncommitted record (in any mode), the dirty bytes are *adopted* by the
  transaction -- they commit or abort with it, and the lock is retained;
* **non-transaction locks** (section 3.4): obey Figure 1 but are exempt
  from two-phase locking -- an unlock really releases them;
* wait-for edge export for the out-of-kernel deadlock detector
  (section 3.1).

Blocked requests are indexed per file by byte range (the same
:class:`~repro.locking.intervals.IntervalIndex` the lock table keeps
its granted ranges in), so an unlock re-examines only the waiters whose
ranges overlap the bytes that changed -- O(affected), not O(all
waiters).  The grant order is provably the FIFO fixpoint order of the
naive full rescan: a waiter whose range saw no table change is still
blocked, so skipping it cannot reorder grants
(tests/locking/test_wake_order_invariance.py checks this against the
rescan algorithm directly).

Wait-for export is a read of state the manager already has.  Every
queued request remembers the blockers computed when it queued and at
each re-examination; the only way they can go out of date is a table
change under the request's range, every such change is followed by
:meth:`LockManager._wake_waiters` over the changed bytes, and that
method either recomputes a waiter's blockers or, where it can tell
"still blocked" without computing them, marks them stale
(``blockers = None``) for the export to resolve through the table's
index.  Hence, between calls, a waiter's blockers are exact or None
(docs/ENGINE_PERF.md, "Lock-table index").

With lock caching on, a using site runs a second instance with
``role="lease"`` (docs/LOCK_CACHE.md).
"""

from __future__ import annotations

import operator
from collections import deque

from repro.sim import SimError

from .intervals import IntervalIndex
from .modes import LockMode
from .table import LockTable

__all__ = ["LockManager", "LockError", "LockConflict", "LockCancelled"]


class LockError(SimError):
    """Base class for locking failures."""


class LockConflict(LockError):
    """Non-waiting request hit an incompatible lock."""

    def __init__(self, blockers):
        super().__init__("lock conflict with %s" % (blockers,))
        self.blockers = blockers


class LockCancelled(LockError):
    """A queued request was cancelled (holder aborted, e.g. as a
    deadlock victim)."""


#: Sort key for FIFO candidate ordering -- a C-level attrgetter: the
#: wake scan sorts a candidate list on every pass, and the key
#: extraction is the dominant cost of a near-sorted Timsort.
_waiter_seq = operator.attrgetter("seq")


class _Waiter:
    __slots__ = ("event", "file_id", "holder", "mode", "start", "end",
                 "nontrans", "seq", "blockers")

    def __init__(self, event, file_id, holder, mode, start, end, nontrans,
                 seq, blockers):
        self.event = event
        self.file_id = file_id
        self.holder = holder
        self.mode = mode
        self.start = start
        self.end = end
        self.nontrans = nontrans
        self.seq = seq       # global FIFO rank; grant order follows it
        self.blockers = blockers  # table.conflicts() of this request as
        #                           of now, or None: stale, ask the table


class LockManager:
    """Lock arbitration for the files stored at one site."""

    def __init__(self, engine, cost, site_id=None, role="storage"):
        self._engine = engine
        self._cost = cost
        self.site_id = site_id  # observability attribution only
        self.role = role        # "storage", or "lease" for the using-site
        #                         arbiter; tags its announcements
        self._tables = {}       # file_id -> LockTable
        self._queues = {}       # file_id -> deque[_Waiter] (FIFO)
        self._ranges = {}       # file_id -> IntervalIndex of its queue
        self._nwaiting = 0      # total queued waiters
        self._holder_waits = {}  # holder -> [_Waiter], FIFO, never empty
        self._file_states = {}  # file_id -> OpenFileState (rule-2 hook)
        self._seq = 0
        # Invoked whenever a request queues; the cluster uses it to arm
        # the deadlock-detector system process on demand.
        self.wait_hook = None

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def register_file_state(self, file_id, state):
        """The file layer registers the in-core update state so rule 2
        can see dirty-uncommitted ranges."""
        self._file_states[file_id] = state

    def forget_file(self, file_id):
        """Drop all state for a file (last close)."""
        self._tables.pop(file_id, None)
        dropped = self._queues.pop(file_id, None)
        if dropped:
            self._nwaiting -= len(dropped)
            for waiter in dropped:
                self._drop_holder_wait(waiter)
        self._ranges.pop(file_id, None)
        self._file_states.pop(file_id, None)
        self._table_changed()

    def table(self, file_id) -> LockTable:
        """The (lazily created) lock table for a file."""
        table = self._tables.get(file_id)
        if table is None:
            table = self._tables[file_id] = LockTable()
        return table

    # ------------------------------------------------------------------
    # lock / unlock
    # ------------------------------------------------------------------

    def lock(self, file_id, holder, mode, start, end, nontrans=False,
             wait=True):
        """Generator: acquire a lock, queueing if necessary.

        Raises :class:`LockConflict` when ``wait`` is False and the
        request conflicts.  A queued request waits until it is granted
        or cancelled (section 3.1): cancellation -- the holder aborted,
        e.g. as a deadlock victim -- raises :class:`LockCancelled`.
        """
        yield self._engine.charge(self._cost.instr(self._cost.lock_instructions))
        obs = self._engine.obs
        table = self.table(file_id)
        blockers = table.conflicts(holder, mode, start, end)
        if not blockers:
            # Immediate grants are real zero-wait samples: leaving them
            # out would inflate the wait percentiles.
            obs.observe(self.site_id, "lock.wait", 0.0)
            self._do_grant(file_id, holder, mode, start, end, nontrans)
            # A mode *downgrade* (exclusive -> shared) can unblock queued
            # readers; re-examine the waiters the grant could affect.
            self._wake_waiters(file_id, [(start, end)])
            return True
        if not wait:
            raise LockConflict(blockers)
        event = self._engine.event()
        waiter = _Waiter(event, file_id, holder, mode, start, end, nontrans,
                         self._seq, blockers)
        self._seq += 1
        self._add_waiter(waiter)
        if self.wait_hook is not None:
            self.wait_hook()
        queued_at = self._engine.now
        # ``blockers`` -- the holders whose locks queued this request, at
        # queue time -- feed the contention profiler
        # (repro.obs.critpath.contention_view).
        span = obs.span("lock.wait", self.site_id, file_id, holder, mode,
                        start, end, blockers)
        try:
            yield event  # the waker grants before signalling; failure raises
        except BaseException:
            obs.end(span, "cancelled")
            raise
        obs.end(span, "granted")
        obs.observe(self.site_id, "lock.wait", self._engine.now - queued_at)
        return True

    def _do_grant(self, file_id, holder, mode, start, end, nontrans):
        table = self.table(file_id)
        table.grant(holder, mode, start, end, nontrans=nontrans)
        # Every grant path funnels through here (immediate grants, waiter
        # wake-ups, mirrored and installed grants), so this one
        # announcement covers every grant.
        self._engine.obs.event(
            "lock.grant", self.site_id, self.role, file_id, holder, mode,
            start, end, nontrans, table, self)
        if holder[0] == "txn" and not nontrans:
            self._adopt_dirty_records(file_id, holder, start, end)

    def _table_changed(self):
        """Announce that a lock table or wait queue changed."""
        self._engine.obs.event("lock.table", self.site_id, self)

    def _adopt_dirty_records(self, file_id, txn_holder, start, end):
        """Rule 2: dirty-uncommitted bytes under a fresh transaction lock
        join the transaction and the covering lock is retained."""
        state = self._file_states.get(file_id)
        if state is None:
            return
        for owner, ranges in state.dirty_owners(start, end).items():
            if owner == txn_holder or owner[0] == "txn":
                # Another transaction's dirty bytes are still under its
                # exclusive two-phase lock, so we cannot be here for
                # them; only process-owned (non-transaction) data moves.
                continue
            for lo, hi in ranges:
                state.adopt(txn_holder, owner, lo, hi)
                self.table(file_id).retain(txn_holder, lo, hi)

    def unlock(self, file_id, holder, start, end, two_phase):
        """Generator: release or retain, per the holder's discipline.

        ``two_phase`` True (a transaction's ordinary lock): rule 1 --
        the lock is retained, still blocking other holders.  False (a
        non-transaction process, or a section 3.4 non-transaction lock):
        really released, and waiters are re-examined.
        """
        yield self._engine.charge(self._cost.instr(self._cost.unlock_instructions))
        table = self.table(file_id)
        if two_phase:
            table.retain(holder, start, end)
            return
        table.release(holder, start, end)
        self._table_changed()
        self._wake_waiters(file_id, [(start, end)])

    def unlock_auto(self, file_id, holder, start, end):
        """Generator: unlock with per-record discipline resolution.

        A process-holder's locks and a transaction's *non-transaction*
        locks (section 3.4) really release; the transaction's two-phase
        locks are retained (rule 1).
        """
        yield self._engine.charge(self._cost.instr(self._cost.unlock_instructions))
        table = self.table(file_id)
        if holder[0] == "proc":
            table.release(holder, start, end)
        elif not table.unlock(holder, start, end):
            return
        self._table_changed()
        self._wake_waiters(file_id, [(start, end)])

    def release_holder(self, holder):
        """Commit/abort: drop every lock and queued request of a holder
        across all files at this site."""
        freed = {}
        for file_id, table in self._tables.items():
            ranges = table.release_holder(holder)  # one probe if it has none
            if ranges:
                freed[file_id] = ranges.runs
        if holder in self._holder_waits:  # rare: spare the message otherwise
            self.cancel_waits(
                holder, LockCancelled("holder %s finished" % (holder,)))
        self._table_changed()
        for file_id, runs in freed.items():
            self._wake_waiters(file_id, list(runs))

    def release_holder_on_file(self, file_id, holder):
        """Drop a holder's locks on one file (close of a non-transaction
        channel) and re-examine that file's waiters."""
        freed = self.table(file_id).release_holder(holder).runs
        self._table_changed()
        if freed:
            self._wake_waiters(file_id, list(freed))

    def _drop_holder_wait(self, waiter):
        waits = self._holder_waits[waiter.holder]
        waits.remove(waiter)
        if not waits:
            del self._holder_waits[waiter.holder]

    def cancel_waits(self, holder, exc):
        """Fail a holder's queued requests with ``exc``, file by file in
        the order the files first saw a waiter, FIFO within a file.

        The per-holder list makes the common case -- the finishing
        holder has nothing queued anywhere, true for every commit that
        was never blocked -- a single dict probe."""
        waits = self._holder_waits.get(holder)
        if waits is None:
            return
        for file_id in self._queues:
            for waiter in [w for w in waits if w.file_id == file_id]:
                self._remove_waiter(waiter)
                if not waiter.event.triggered:
                    waiter.event.fail(exc)

    def fail_waiters(self, file_id, exc):
        """Fail every request queued on one file (its waiters must retry
        elsewhere)."""
        queue = self._queues.get(file_id)
        while queue:
            waiter = queue[0]
            self._remove_waiter(waiter)
            if not waiter.event.triggered:
                waiter.event.fail(exc)

    # ------------------------------------------------------------------
    # waiter index
    # ------------------------------------------------------------------

    def _add_waiter(self, waiter):
        file_id = waiter.file_id
        queue = self._queues.get(file_id)
        if queue is None:
            queue = self._queues[file_id] = deque()
            self._ranges[file_id] = IntervalIndex()
        queue.append(waiter)
        self._ranges[file_id].add(waiter.start, waiter.end, waiter)
        self._nwaiting += 1
        self._holder_waits.setdefault(waiter.holder, []).append(waiter)
        self._table_changed()

    def _remove_waiter(self, waiter):
        queue = self._queues.get(waiter.file_id)
        if not queue:
            return  # its file was forgotten
        # Wake-ups grant in FIFO order, so the leaving waiter is almost
        # always at (or near) the head -- popleft beats a linear
        # deque.remove on the convoy path.
        if queue[0] is waiter:
            queue.popleft()
        else:
            try:
                queue.remove(waiter)
            except ValueError:
                return  # forgotten, and the file has a new queue since
        self._ranges[waiter.file_id].remove(waiter.start, waiter.end, waiter)
        self._nwaiting -= 1
        self._drop_holder_wait(waiter)
        self._table_changed()

    def _candidates(self, file_id, changed):
        """Queued waiters whose blocked-status may have flipped, FIFO.

        ``changed`` is a list of (start, end) byte ranges the lock table
        mutated under; None means "anything may have changed" (full
        FIFO scan, used by the recovery paths)."""
        queue = self._queues.get(file_id)
        if not queue:
            return []
        if changed is None:
            return list(queue)
        overlapping = self._ranges[file_id].overlapping
        if len(changed) == 1:
            out = list(overlapping(*changed[0]))
        else:
            found = {}
            for start, end in changed:
                found.update(overlapping(start, end))
            out = list(found)
        # Each stretch of the index lists its waiters in queue (seq)
        # order, so this is a Timsort over a concatenation of sorted
        # runs: nearly O(n), and O(n) flat when one stretch answered.
        out.sort(key=_waiter_seq)
        return out

    def waiters(self, file_id):
        """The FIFO queue for one file (read-only)."""
        return tuple(self._queues.get(file_id, ()))

    def _wake_waiters(self, file_id, changed=None):
        """Grant every queued request the table now admits.

        Only waiters overlapping ``changed`` ranges are re-examined: a
        waiter queued because of a conflict stays blocked until some
        record in *its* range is released or converted, so untouched
        waiters are provably still blocked.  Ranges granted in one pass
        feed the next pass -- and *only* those ranges: a waiter checked
        in pass k saw the table as of pass k's grants, so pass k+1 needs
        to revisit it only if a pass-k grant touched its range (table
        mutations are confined to the granted range).  This reproduces
        the naive full-rescan fixpoint's FIFO grant order exactly
        (tests/locking/test_wake_order_invariance.py).

        Convoy fast path: once a pass grants an EXCLUSIVE lock, every
        later candidate whose range overlaps it (and whose holder
        differs) is blocked by definition -- Figure 1 admits nothing
        next to EXCLUSIVE, in either mode, on any overlapping byte --
        so the per-candidate conflict check is skipped.  A later
        same-pass grant *to the same holder* can
        downgrade-convert that exclusive range, so such grants evict the
        overlapping entries from the skip list.

        Wait-for bookkeeping: a candidate that stays queued leaves with
        the blockers just computed, or with None where the check was
        skipped.  A grant changes the blockers of the waiters under it;
        those are exactly the next pass's candidates.
        """
        queue = self._queues.get(file_id)
        if not queue:
            return
        table = self.table(file_id)
        conflicts = table.conflicts
        pending = self._candidates(file_id, changed)
        # (holder, start, end) exclusive grants made during this wake
        # call.  Valid across passes: nothing is released inside the
        # call, so a grant recorded here stays in the table until the
        # call returns (same-holder conversions evict below), and every
        # later candidate overlapping one is blocked without a scan.
        excl = []
        while pending:
            granted = []   # ranges granted this pass -> next pass's changed
            granted_holders = []
            all_excl = True
            for waiter in pending:
                holder = waiter.holder
                w_start = waiter.start
                w_end = waiter.end
                if excl:
                    blocked = False
                    for h, s, e in excl:
                        if s < w_end and w_start < e and h != holder:
                            blocked = True
                            break
                    if blocked:
                        waiter.blockers = None
                        continue
                blockers = waiter.blockers = conflicts(
                    holder, waiter.mode, w_start, w_end)
                if blockers:
                    continue
                self._remove_waiter(waiter)
                self._do_grant(
                    file_id, holder, waiter.mode, w_start, w_end,
                    waiter.nontrans,
                )
                if not waiter.event.triggered:
                    waiter.event.succeed(True)
                granted.append((w_start, w_end))
                granted_holders.append(holder)
                if excl:
                    # A grant converts the *holder's* overlapping
                    # other-mode records, so the holder's own exclusive
                    # skip entries intersecting this range are stale.
                    excl = [
                        (h, s, e) for h, s, e in excl
                        if h != holder or not (s < w_end and w_start < e)
                    ]
                if waiter.mode is LockMode.EXCLUSIVE:
                    excl.append((holder, w_start, w_end))
                else:
                    all_excl = False
            if not granted:
                break
            # An EXCLUSIVE grant can only *add* blocking: any conversion
            # it performs upgrades the holder's own records, so no other
            # holder's waiter can have been unblocked, and a same-holder
            # waiter exists only if the holder has requests queued.  A
            # pass of purely exclusive grants to holders with nothing
            # queued is therefore already the fixpoint -- the convoy
            # common case, one pass per release.  The waiters the grants
            # now block have a new blocker and get no further look.
            if all_excl:
                hw = self._holder_waits
                if not any(h in hw for h in granted_holders):
                    overlapping = self._ranges[file_id].overlapping
                    for start, end in granted:
                        for waiter in overlapping(start, end):
                            waiter.blockers = None
                    break
            # Recovery paths pass changed=None ("anything may have
            # changed"); keep rescanning the full FIFO queue until a
            # pass grants nothing.
            pending = self._candidates(
                file_id, None if changed is None else granted)

    # ------------------------------------------------------------------
    # grants arbitrated elsewhere (lock caching, docs/LOCK_CACHE.md)
    # ------------------------------------------------------------------

    def mirror_grant(self, file_id, holder, mode, start, end, nontrans=False):
        """Install a lock another manager already arbitrated (and
        charged for) without charging instructions again."""
        self._do_grant(file_id, holder, mode, start, end, nontrans)
        self._wake_waiters(file_id, [(start, end)])

    def install_remote_locks(self, file_id, records):
        """Adopt lock state another site arbitrated and shipped back.

        ``records`` are (holder, mode name, nontrans, ranges runs,
        retained runs) tuples.  Grants cannot conflict -- they were made
        under exclusive authority over the range.
        """
        changed = []
        for holder, mode_name, nontrans, runs, retained in records:
            holder = tuple(holder)
            mode = LockMode[mode_name]
            for lo, hi in runs:
                self._do_grant(file_id, holder, mode, lo, hi, nontrans)
                changed.append((lo, hi))
            for lo, hi in retained:
                self.table(file_id).retain(holder, lo, hi)
        if changed:
            self._wake_waiters(file_id, changed)

    # ------------------------------------------------------------------
    # access validation and attribution
    # ------------------------------------------------------------------

    def unix_access_blockers(self, file_id, accessor, want_write, start, end):
        """Figure 1 row 1: who blocks an unlocked access?"""
        return self.table(file_id).unix_conflicts(accessor, want_write, start, end)

    def write_attribution(self, file_id, pid, tid, start, end):
        """Which owner key a write in [start, end) belongs to.

        A transaction process writing under a *non-transaction* lock --
        either the section 3.4 lock mode, or a lock the process acquired
        *before* BeginTrans (section 3.4's second method: such locks
        "are not converted to transaction locks") -- produces
        process-owned data that commits independently of the
        transaction.  Otherwise a transaction's writes belong to the
        transaction.  Non-transaction processes always own their writes.
        """
        if tid is None:
            return ("proc", pid)
        table = self.table(file_id)
        if table.covering_mode(("proc", pid), start, end) is LockMode.EXCLUSIVE:
            return ("proc", pid)  # pre-transaction lock covers the write
        holder = ("txn", tid)
        covered = table.covering_mode(holder, start, end, nontrans=True)
        if covered is LockMode.EXCLUSIVE:
            return ("proc", pid)
        return holder

    # ------------------------------------------------------------------
    # deadlock support
    # ------------------------------------------------------------------

    def _blocked(self):
        """(waiter, its blockers) for every queued request, resolving
        stale blockers through the table's index."""
        for file_id, queue in self._queues.items():
            if not queue:
                continue
            conflicts = self.table(file_id).conflicts
            for waiter in queue:
                blockers = waiter.blockers
                if blockers is None:
                    blockers = waiter.blockers = conflicts(
                        waiter.holder, waiter.mode, waiter.start, waiter.end)
                yield waiter, blockers

    def wait_edges(self):
        """(waiter, blocker) holder pairs for the wait-for graph --
        the operating-system data interface of section 3.1."""
        return sorted({
            (waiter.holder, blocker)
            for waiter, blockers in self._blocked() for blocker in blockers
        })

    def waiting_holders(self):
        """Holders with at least one queued request."""
        return sorted(self._holder_waits)

    def live_entries(self):
        """Live lock entries over every file's table."""
        return sum(table.live_count() for table in self._tables.values())

    @property
    def waiting(self):
        """Queued requests over every file."""
        return self._nwaiting

    def wait_edge_details(self):
        """(waiter, blocker, file_id, start, end, seq) for every queued
        conflict at this site -- the observability-grade version of
        :meth:`wait_edges`, carrying the contention point and the FIFO
        rank of the waiting request.

        Pure reader for abort provenance and the ``deadlock.cycle``
        instant markers; never called on the simulated network (the
        wire protocol still ships the bare pairs, so message sizes --
        and every pinned seed fingerprint -- are untouched)."""
        details = [
            (waiter.holder, blocker, waiter.file_id,
             waiter.start, waiter.end, waiter.seq)
            for waiter, blockers in self._blocked() for blocker in blockers
        ]
        details.sort(key=lambda d: (str(d[2]), d[5], d[0], d[1]))
        return details
