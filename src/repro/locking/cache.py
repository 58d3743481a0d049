"""The requesting site's lock list (``Site.lock_list``).

"When a requesting site receives a successful response to a locking
request, it caches this response in its local lock list.  This permits
the kernel to quickly validate each process's read and write requests"
(section 5.1).

The cache records only *this site's own granted locks*; it can validate
positively (the range is covered by a lock we know we hold) but never
negatively -- absence means "ask the storage site".
"""

from __future__ import annotations

from repro.rangeset import RangeSet

from .modes import LockMode

__all__ = ["LockCache"]


class LockCache:
    """Per-site cache of locks granted to local holders."""

    def __init__(self):
        # holder -> {(file_id, mode): RangeSet}, no empty set and no
        # empty holder: commit/abort drops a holder with one pop.
        self._granted = {}
        self.hits = 0
        self.misses = 0

    def record_grant(self, file_id, holder, mode, start, end):
        """Cache a granted lock for later local validation."""
        if start == end:
            return  # covers nothing; an empty entry would never leave
        held = self._granted.setdefault(holder, {})
        held.setdefault((file_id, mode), RangeSet()).add(start, end)
        # A grant in one mode converts overlapping cached ranges held in
        # the other mode (mirror of LockTable.grant semantics).
        other = LockMode.SHARED if mode is LockMode.EXCLUSIVE else LockMode.EXCLUSIVE
        self._uncache(file_id, holder, (other,), start, end)

    def record_release(self, file_id, holder, start, end):
        """Uncache a released range."""
        self._uncache(file_id, holder, LockMode, start, end)

    def _uncache(self, file_id, holder, modes, start, end):
        held = self._granted.get(holder)
        if held is None:
            return
        for mode in modes:
            ranges = held.get((file_id, mode))
            if ranges is not None:
                ranges.remove(start, end)
                if not ranges:
                    del held[(file_id, mode)]
        if not held:
            # Non-transaction holders are never dropped on commit; an
            # emptied one left here would stay for the site's lifetime.
            del self._granted[holder]

    def drop_holder(self, holder):
        """Forget a holder's cached grants (commit/abort)."""
        self._granted.pop(holder, None)

    def covers(self, file_id, holder, start, end, want_write):
        """True when the cached locks prove the access is safe."""
        window = RangeSet.single(start, end)
        acceptable = (
            (LockMode.EXCLUSIVE,) if want_write else (LockMode.EXCLUSIVE, LockMode.SHARED)
        )
        held = self._granted.get(holder) or {}
        covered = RangeSet()
        for mode in acceptable:
            ranges = held.get((file_id, mode))
            if ranges is not None:
                covered = covered.union(ranges)
        if window.difference(covered):
            self.misses += 1
            return False
        self.hits += 1
        return True

    def holds_any(self, file_id, holder, start, end):
        """Does the holder hold any cached lock overlapping the range?

        Pure query for the lease-local fast path -- unlike
        :meth:`covers` it does not count a hit or miss, so enabling the
        lock cache does not perturb the section 5.1 cache statistics.
        """
        held = self._granted.get(holder) or {}
        for mode in LockMode:
            ranges = held.get((file_id, mode))
            if ranges is not None and ranges.overlaps(start, end):
                return True
        return False

    def clear(self):
        """Forget everything (site crash)."""
        self._granted.clear()
