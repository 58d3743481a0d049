"""Lease data structures for remote-lock caching (docs/LOCK_CACHE.md).

Section 6.2 prices a remote lock at ~18 ms against ~2 ms local, all of
it messaging.  The cure (AFS callbacks, NFSv4 delegations, lease-based
replicated STM) lets the storage site grant a *lease* on a covering
range along with a lock; the using site arbitrates later lock calls on
the range locally until the storage site *recalls* the lease.  The
protocol is the per-site layer :mod:`repro.locus.leases`; this module
holds its bookkeeping:

* :class:`LeaseRegistry` -- storage side: which remote site holds
  authority over which byte ranges of which file, with an expiry that
  bounds how long a partitioned holder can matter.
* :class:`LeaseCache` -- using side: the leases held, their expiry, and
  which local lock records *mirror* locks the storage site already
  knows (a recall reports only the rest).

Safety (docs/LOCK_CACHE.md has the failure matrix): a lease range never
overlaps another site's lease, another holder's storage-table lock or a
queued waiter's range, so local grants at the leaseholder cannot
contradict the storage site; the using site stops granting at expiry
and the storage site overrides an *unreachable* holder only after it
(shared clock here, bounded drift in a real system); a crashed
holder's leases are dropped at once, its lock state died with it.
"""

from __future__ import annotations

from repro.rangeset import RangeSet

from .manager import LockError

__all__ = ["LEASE_SPAN", "Lease", "LeaseCache", "LeaseRecalled",
           "LeaseRegistry"]

#: Lease granularity: a leased range is the request rounded out to this
#: many bytes when nothing conflicts.
LEASE_SPAN = 16384


class LeaseRecalled(LockError):
    """Raised to waiters queued at a *using* site when the lease backing
    their wait is recalled; the kernel retries through the storage site."""


class Lease:
    """Storage-site record of one site's lease on one file."""

    __slots__ = ("site_id", "ranges", "expiry", "recall_event")

    def __init__(self, site_id):
        self.site_id = site_id
        self.ranges = RangeSet()
        self.expiry = 0.0
        #: Event set while an invalidation callback is in flight, so
        #: concurrent conflicting requests share one recall message.
        self.recall_event = None


class LeaseRegistry:
    """Outstanding leases for the files stored at one site."""

    def __init__(self, span=LEASE_SPAN, duration=5.0):
        self.span = max(int(span), 1)
        self.duration = float(duration)
        self._leases = {}  # file_id -> {site_id -> Lease}

    # ------------------------------------------------------------------
    # granting
    # ------------------------------------------------------------------

    def grant(self, file_id, site_id, holder, start, end, now, manager):
        """Try to lease a covering range of ``[start, end)`` to
        ``site_id`` alongside an exclusive grant to ``holder``.

        The covering range is the request rounded out to ``span``
        boundaries, shrunk back to the exact request if the extension
        would overlap foreign state (another holder's lock, another
        site's lease, or a queued waiter's range -- any of which would
        let local arbitration at the leaseholder contradict the storage
        site).  Returns ``(lo, hi, expiry)`` or None.
        """
        lo = (start // self.span) * self.span
        hi = -(-end // self.span) * self.span
        if self._window_conflicts(file_id, site_id, holder, lo, hi, manager):
            lo, hi = start, end
            if self._window_conflicts(file_id, site_id, holder, lo, hi, manager):
                return None
        by_site = self._leases.setdefault(file_id, {})
        lease = by_site.get(site_id)
        if lease is None:
            lease = by_site[site_id] = Lease(site_id)
        if lease.recall_event is not None:
            return None  # mid-recall: the lease is on its way out
        lease.ranges.add(lo, hi)
        lease.expiry = now + self.duration
        return (lo, hi, lease.expiry)

    def _window_conflicts(self, file_id, site_id, holder, lo, hi, manager):
        for rec in manager.table(file_id).records():
            if rec.holder != holder and rec.ranges.overlaps(lo, hi):
                return True
        for sid, lease in self._leases.get(file_id, {}).items():
            if sid != site_id and lease.ranges.overlaps(lo, hi):
                return True
        for waiter in manager.waiters(file_id):
            if waiter.start < hi and lo < waiter.end:
                return True
        return False

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def conflicting(self, file_id, start, end):
        """Leases overlapping ``[start, end)`` -- all of them conflict:
        a lease is exclusive *authority*, whatever the lock modes."""
        return [
            lease
            for lease in self._leases.get(file_id, {}).values()
            if lease.ranges.overlaps(start, end)
        ]

    def lease_of(self, file_id, site_id):
        """The :class:`Lease` held by ``site_id`` on ``file_id``, or None."""
        return self._leases.get(file_id, {}).get(site_id)

    def leased_files(self):
        """File ids with at least one outstanding lease (sorted)."""
        return sorted(self._leases, key=str)

    def count(self):
        """Total outstanding leases (the ``lease.live`` timeline gauge)."""
        return sum(len(by_site) for by_site in self._leases.values())

    # ------------------------------------------------------------------
    # refresh / teardown
    # ------------------------------------------------------------------

    def refresh(self, file_id, site_id, now):
        """Extend a lease (piggybacked on a 2PC prepare); returns the
        new expiry, or None when there is nothing (safe) to extend."""
        lease = self._leases.get(file_id, {}).get(site_id)
        if lease is None or lease.recall_event is not None:
            return None
        lease.expiry = now + self.duration
        return lease.expiry

    def drop(self, file_id, site_id):
        """Remove one lease (recall completed, or holder crashed)."""
        by_site = self._leases.get(file_id)
        if by_site is None:
            return
        lease = by_site.pop(site_id, None)
        if not by_site:
            del self._leases[file_id]
        if lease is not None and lease.recall_event is not None:
            # A force-drop (leaseholder crashed) resolves any in-flight
            # recall: requesters blocked on it may proceed now.
            if not lease.recall_event.triggered:
                lease.recall_event.succeed(True)
            lease.recall_event = None

    def drop_site(self, site_id):
        """Forget every lease granted to ``site_id`` (it crashed: its
        in-core lock state and lease-local holders no longer exist)."""
        for file_id in list(self._leases):
            self.drop(file_id, site_id)


class LeaseCache:
    """Using-site record of the leases this site holds."""

    def __init__(self):
        self._leases = {}    # file_id -> {"storage", "ranges", "expiry"}
        self._mirrored = {}  # file_id -> {holder -> RangeSet}
        self.stats = {
            "hits": 0, "misses": 0, "recalls": 0,
            "refreshes": 0, "expired": 0, "msgs_saved": 0,
        }

    # ------------------------------------------------------------------
    # lease lifecycle
    # ------------------------------------------------------------------

    def grant(self, file_id, storage_site, lo, hi, expiry):
        """Record a lease on ``[lo, hi)`` received from ``storage_site``."""
        entry = self._leases.get(file_id)
        if entry is None or entry["storage"] != storage_site:
            entry = self._leases[file_id] = {
                "storage": storage_site, "ranges": RangeSet(), "expiry": 0.0,
            }
        entry["ranges"].add(lo, hi)
        entry["expiry"] = expiry

    def covers(self, file_id, start, end, now):
        """May ``[start, end)`` be arbitrated locally right now?

        An expired lease answers False but is *kept*: the storage site
        still tracks it, and its recall (or a fresh grant) will collect
        the local lock state it shielded.
        """
        entry = self._leases.get(file_id)
        if entry is None:
            return False
        if now >= entry["expiry"]:
            self.stats["expired"] += 1
            return False
        window = RangeSet.single(start, max(end, start + 1))
        return not window.difference(entry["ranges"])

    def renew(self, file_id, expiry):
        """Extend a held lease to ``expiry`` (never shortens it)."""
        entry = self._leases.get(file_id)
        if entry is not None and expiry > entry["expiry"]:
            entry["expiry"] = expiry

    def storage_of(self, file_id):
        """The storage site a lease on ``file_id`` came from, or None."""
        entry = self._leases.get(file_id)
        return None if entry is None else entry["storage"]

    def files_from(self, storage_site):
        """Files leased from ``storage_site`` (for prepare piggybacking)."""
        return sorted(
            (f for f, e in self._leases.items() if e["storage"] == storage_site),
            key=str,
        )

    def drop_file(self, file_id):
        """Recall: the lease and its mirror bookkeeping are gone."""
        self._leases.pop(file_id, None)
        self._mirrored.pop(file_id, None)

    def drop_unreachable(self, reachable):
        """Drop leases whose storage site fails ``reachable(site_id)``
        (partition or crash); returns the affected file ids."""
        dropped = [
            file_id for file_id, entry in self._leases.items()
            if not reachable(entry["storage"])
        ]
        for file_id in dropped:
            self.drop_file(file_id)
            self.stats["expired"] += 1
        return dropped

    # ------------------------------------------------------------------
    # mirrored locks
    # ------------------------------------------------------------------

    def note_mirrored(self, file_id, holder, lo, hi):
        """Record that the storage site already holds this lock record
        (it granted it); a recall must not report it back."""
        self._mirrored.setdefault(file_id, {}).setdefault(
            holder, RangeSet()
        ).add(lo, hi)

    def mirrored_of(self, file_id):
        """{holder: RangeSet} of locks the storage site already knows."""
        return self._mirrored.get(file_id, {})

    def drop_holder(self, holder):
        """Commit/abort: the holder's mirrors are dead bookkeeping."""
        for by_holder in self._mirrored.values():
            by_holder.pop(holder, None)
