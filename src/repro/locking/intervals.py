"""Interval index: which items cover which bytes.

The lock list of a file is asked one question over and over -- *who is
on any byte of* ``[start, end)``? -- by every lock request, every wake
re-examination and every wait-for export.  :class:`IntervalIndex`
answers it in O(log n + answers) from a piecewise-constant map: a
sorted list of breakpoints (``bisect``) and, for each stretch between
two breakpoints, the insertion-ordered set of items present on every
byte of it.  Stretches are exact, not buckets: two adjacent 16-byte
records never share one, and a whole-file range simply appears in every
stretch under it.

One class serves both sides of the lock manager: the granted runs of a
:class:`~repro.locking.table.LockTable` (items are lock records) and
the queued requests of a :class:`~repro.locking.manager.LockManager`
(items are waiters, which join in FIFO order, so a stretch lists them
in grant order).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

__all__ = ["IntervalIndex"]


class IntervalIndex:
    """Map from byte to the ordered set of (hashable) items covering it.

    ``add`` and ``remove`` have coverage semantics, like
    :class:`~repro.rangeset.RangeSet`: adding over bytes an item already
    covers, or removing where it is absent, changes nothing there.
    Invariant after every call: ``_cover[i]`` holds the items on
    ``[_keys[i], _keys[i + 1])``, no two neighbouring stretches are
    equal (nothing is on the bytes before ``_keys[0]``), and therefore
    the last cover is empty and an empty index has no breakpoints.
    """

    __slots__ = ("_keys", "_cover")

    def __init__(self):
        self._keys = []
        self._cover = []

    def __bool__(self):
        return bool(self._keys)

    def add(self, start, end, item):
        """Put ``item`` on every byte of ``[start, end)``."""
        if start < end:
            lo, hi = self._cut(start), self._cut(end)
            for cover in self._cover[lo:hi]:
                cover[item] = None
            self._join(lo, hi)

    def remove(self, start, end, item):
        """Take ``item`` off every byte of ``[start, end)``."""
        if start < end:
            lo, hi = self._cut(start), self._cut(end)
            for cover in self._cover[lo:hi]:
                cover.pop(item, None)
            self._join(lo, hi)

    def overlapping(self, start, end):
        """The items on at least one byte of ``[start, end)``, in
        insertion order per stretch.  Read-only, and valid only until
        the next ``add``/``remove``: when one stretch answers the query
        (the common case) its own set is returned, not a copy."""
        if start >= end:
            return ()
        keys = self._keys
        i = bisect_right(keys, start) - 1
        if i < 0:
            i = 0
        stop = bisect_left(keys, end, i)
        if stop - i == 1:
            return self._cover[i]
        found = {}
        for cover in self._cover[i:stop]:
            found.update(cover)
        return found

    def _cut(self, point):
        """Index of the stretch that starts at ``point``, splitting the
        one around it if there is no breakpoint there yet."""
        keys = self._keys
        i = bisect_left(keys, point)
        if i == len(keys) or keys[i] != point:
            keys.insert(i, point)
            self._cover.insert(i, dict(self._cover[i - 1]) if i else {})
        return i

    def _join(self, lo, hi):
        """Drop the breakpoints ``lo..hi`` that no longer separate
        different covers."""
        keys, cover = self._keys, self._cover
        for i in range(hi, lo - 1, -1):
            if cover[i] == (cover[i - 1] if i else {}):
                del keys[i]
                del cover[i]
