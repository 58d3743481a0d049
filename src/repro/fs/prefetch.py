"""Lock-grant page prefetching (section 5.2's first proposed
optimization).

"When a lock is requested, the page(s) containing the byte range can be
prefetched, in anticipation of their subsequent use."  The storage site
ships the pages covering the locked range back with the grant; the
requesting site may then serve reads *within the locked range* from its
local copy without a network round trip.

Coherence comes from the lock itself: while the holder's lock covers a
byte range, no other holder can change those bytes (Figure 1), so the
prefetched copy cannot go stale for exactly the bytes the lock covers.
The kernel therefore serves a read from this cache only when the
requesting site's lock list proves coverage.  The holder's own writes
are patched through.  Keys include the holder (a transaction id or
process id), both of which are never reused, so entries can never be
mistaken across owners.
"""

from __future__ import annotations

__all__ = ["PrefetchCache"]


class PrefetchCache:
    """Per-site store of lock-grant page prefetches."""

    def __init__(self):
        # holder -> {file_id: [[start, end, bytearray], ...] by start}
        self._entries = {}
        self.hits = 0
        self.misses = 0

    def _spans(self, file_id, holder):
        return self._entries.get(holder, {}).get(file_id, ())

    def store(self, file_id, holder, start, data):
        """Remember ``data`` as the file contents at ``start``."""
        if not data:
            return
        entries = self._entries.setdefault(holder, {}).setdefault(file_id, [])
        end = start + len(data)
        # Drop anything the new span supersedes, then insert.
        entries[:] = [e for e in entries if e[1] <= start or e[0] >= end]
        entries.append([start, end, bytearray(data)])
        entries.sort(key=lambda e: e[0])

    def read(self, file_id, holder, start, end):
        """The bytes [start, end) if one stored span fully contains them."""
        for lo, hi, data in self._spans(file_id, holder):
            if lo <= start and end <= hi:
                self.hits += 1
                return bytes(data[start - lo:end - lo])
        self.misses += 1
        return None

    def patch(self, file_id, holder, start, data):
        """Apply the holder's own write to any overlapping span."""
        end = start + len(data)
        for lo, hi, stored in self._spans(file_id, holder):
            olo, ohi = max(start, lo), min(end, hi)
            if olo < ohi:
                stored[olo - lo:ohi - lo] = data[olo - start:ohi - start]

    def drop_range(self, file_id, holder, start, end):
        """Unlock: spans overlapping the released range are no longer
        protected and must be discarded."""
        entries = self._spans(file_id, holder)
        if not entries:
            return
        entries[:] = [e for e in entries if e[1] <= start or e[0] >= end]
        if not entries:
            files = self._entries[holder]
            del files[file_id]
            if not files:
                del self._entries[holder]

    def drop_holder(self, holder):
        self._entries.pop(holder, None)

    def __len__(self):
        return sum(len(spans) for files in self._entries.values()
                   for spans in files.values())
