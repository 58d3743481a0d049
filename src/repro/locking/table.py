"""The per-file lock list (Figure 3).

When a file is opened at its storage site, lock requests attach *lock
records* to the in-core inode: holder identity, locking mode, and the
byte ranges held (section 5.1).  The holder is a transaction id for
transaction locks -- every process of a transaction shares its locks
(section 3.1) -- or a process id for non-transaction locks.

The table is pure bookkeeping: granting policy, queueing and the
retention rules live in :class:`~repro.locking.manager.LockManager`.

Two indexes, maintained by the mutators below and by nothing else, keep
every query proportional to its answer rather than to the length of the
list (docs/ENGINE_PERF.md, "Lock-table index"): the records of each
*holder* (at most four: two modes, with and without two-phase
discipline), and an :class:`~repro.locking.intervals.IntervalIndex` of
the granted ranges of all records.  ``_records`` stays the source of
truth for the list and its order; a record with no ranges left is
removed at once, so every record in it is live.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.rangeset import RangeSet

from .intervals import IntervalIndex
from .modes import LockMode, compatible, unix_access_allowed

__all__ = ["LockRecord", "LockTable"]


@dataclass(eq=False)  # identity: records are members of index sets
class LockRecord:
    """One holder's locks of one mode on one file."""

    holder: tuple              # ("txn", tid) or ("proc", pid)
    mode: LockMode
    nontrans: bool = False     # section 3.4 non-transaction lock
    ranges: RangeSet = field(default_factory=RangeSet)
    retained: RangeSet = field(default_factory=RangeSet)  # subset of ranges

    def key(self):
        """The dictionary key identifying this record."""
        return (self.holder, self.mode, self.nontrans)


class LockTable:
    """Lock list for one file."""

    def __init__(self):
        self._records = {}    # (holder, mode, nontrans) -> LockRecord
        self._by_holder = {}  # holder -> [LockRecord]
        self._granted = IntervalIndex()  # byte -> records holding it

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def records(self):
        """All lock records, oldest first."""
        return list(self._records.values())

    def live_count(self) -> int:
        """Number of records (the timeline gauges ask on every grant)."""
        return len(self._records)

    def holders(self):
        """Every holder with locks on this file."""
        return sorted(self._by_holder)

    def ranges_of(self, holder, mode=None):
        """The holder's locked ranges (optionally one mode only)."""
        out = RangeSet()
        for rec in self._by_holder.get(holder, ()):
            if mode is None or rec.mode is mode:
                out = out.union(rec.ranges)
        return out

    def retained_of(self, holder):
        """The holder's retained (unlocked-but-held) ranges."""
        out = RangeSet()
        for rec in self._by_holder.get(holder, ()):
            out = out.union(rec.retained)
        return out

    def conflicts(self, holder, mode, start, end):
        """Holders whose existing locks block this request (Figure 1),
        sorted.  Every lock request, every wake re-examination and
        every stale wait-for edge lands here."""
        shared = LockMode.SHARED
        req_shared = mode is shared
        return sorted({
            rec.holder for rec in self._granted.overlapping(start, end)
            if not (req_shared and rec.mode is shared)
            and rec.holder != holder
        })

    def conflicting_pairs(self, start, end):
        """Every pair of records from *different* holders whose modes
        are incompatible and whose ranges overlap each other inside
        ``[start, end)``.

        A correctly arbitrated table always returns [] -- this is the
        runtime monitor's cross-check (``repro.obs.monitor``), asked at
        every grant instant.  It deliberately re-derives conflicts from
        the records' own ranges rather than trusting :meth:`conflicts`,
        so a granting-path bug cannot vouch for itself.
        """
        live = list(self._granted.overlapping(start, end))
        pairs = []
        for i, rec_a in enumerate(live):
            for rec_b in live[i + 1:]:
                if rec_a.holder == rec_b.holder:
                    continue
                if compatible(rec_a.mode, rec_b.mode):
                    continue
                if rec_a.ranges.clamp(start, end).overlaps_set(
                        rec_b.ranges.clamp(start, end)):
                    pairs.append((rec_a, rec_b))
        return pairs

    def unix_conflicts(self, accessor, want_write, start, end):
        """Holders blocking an unlocked Unix access (Figure 1 row 1)."""
        return sorted({
            rec.holder for rec in self._granted.overlapping(start, end)
            if rec.holder != accessor
            and not unix_access_allowed(want_write, rec.mode)
        })

    def covering_mode(self, holder, start, end, nontrans=None):
        """The strongest mode with which ``holder`` covers the whole
        range, or None.  EXCLUSIVE wins over SHARED.  ``nontrans``
        filters to only non-transaction (True) or only two-phase (False)
        locks when not None."""
        records = self._by_holder.get(holder)
        if not records:
            return None
        window = RangeSet.single(start, end)
        for mode in (LockMode.EXCLUSIVE, LockMode.SHARED):
            covered = RangeSet()
            for rec in records:
                if rec.mode is not mode:
                    continue
                if nontrans is not None and rec.nontrans != nontrans:
                    continue
                covered = covered.union(rec.ranges)
            if not window.difference(covered):
                return mode
        return None

    def is_locked_by(self, holder, start, end, mode=None):
        """Does the holder hold any lock overlapping the range?"""
        for rec in self._by_holder.get(holder, ()):
            if mode is not None and rec.mode is not mode:
                continue
            if rec.ranges.overlaps(start, end):
                return True
        return False

    def is_empty(self) -> bool:
        """No lock records at all?"""
        return not self._records

    # ------------------------------------------------------------------
    # mutation (callers have already validated compatibility).  Every
    # change to a record's ranges goes through _shrink or grant, which
    # keep the three structures in step.
    # ------------------------------------------------------------------

    def _shrink(self, rec, start, end):
        """Take ``[start, end)`` out of one record; a record left with
        nothing leaves the list."""
        rec.ranges.remove(start, end)
        rec.retained.remove(start, end)
        self._granted.remove(start, end, rec)
        if not rec.ranges:
            del self._records[rec.key()]
            records = self._by_holder[rec.holder]
            records.remove(rec)
            if not records:
                del self._by_holder[rec.holder]

    def grant(self, holder, mode, start, end, nontrans=False):
        """Record a granted lock; overlapping ranges held by the same
        holder in *other* modes are converted (upgrade/downgrade,
        section 3.2)."""
        if start == end:
            return
        own = None
        for rec in tuple(self._by_holder.get(holder, ())):
            if rec.mode is mode and rec.nontrans == nontrans:
                own = rec
            else:
                self._shrink(rec, start, end)
        if own is None:
            own = LockRecord(holder, mode, nontrans,
                             RangeSet.single(start, end))
            self._records[own.key()] = own
            self._by_holder.setdefault(holder, []).append(own)
        else:
            own.ranges.add(start, end)
            own.retained.remove(start, end)  # reacquisition un-retains
        self._granted.add(start, end, own)

    def release(self, holder, start, end):
        """Drop the holder's locks in the range outright."""
        for rec in tuple(self._by_holder.get(holder, ())):
            self._shrink(rec, start, end)

    def retain(self, holder, start, end):
        """Mark the holder's locks in the range as retained: still held
        (and still blocking others) until commit/abort (section 3.3)."""
        for rec in self._by_holder.get(holder, ()):
            hit = rec.ranges.clamp(start, end)
            rec.retained = rec.retained.union(hit)

    def unlock(self, holder, start, end) -> bool:
        """A transaction's unlock, resolved record by record: its
        non-transaction locks (section 3.4) in the range are released,
        its two-phase locks retained (rule 1).  True when any byte was
        released, i.e. when waiters may have been unblocked."""
        released = False
        for rec in tuple(self._by_holder.get(holder, ())):
            if not rec.nontrans:
                rec.retained = rec.retained.union(
                    rec.ranges.clamp(start, end))
            elif rec.ranges.overlaps(start, end):
                self._shrink(rec, start, end)
                released = True
        return released

    def release_holder(self, holder) -> RangeSet:
        """Commit/abort: drop everything the holder has; returns the
        ranges that were freed."""
        freed = RangeSet()
        for rec in self._by_holder.pop(holder, ()):
            del self._records[rec.key()]
            for lo, hi in rec.ranges:
                self._granted.remove(lo, hi, rec)
                freed.add(lo, hi)
        return freed
