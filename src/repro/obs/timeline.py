"""Time-series telemetry: gauge and rate series over virtual time.

The sketches in :mod:`repro.obs.metrics` are end-of-run aggregates --
they say *how much* lock waiting happened, never *when*.  This module
adds the time axis: the :class:`Timeline` subscribes to the protocol's
announcements and records gauge *change points* (lock-table entries,
disk queue depth, in-flight RPCs, live leases, WAL pending bytes,
active transactions) and interval *counts* (commits, aborts) as plain
appends, then resamples them onto a fixed virtual-time tick grid only
when a report is built.

There is no sampling *process* inside the simulation: the tick grid is
applied post hoc to the recorded change points, which is both cheaper
and exact (a sample at tick boundary ``t`` is the value of the last
change point at or before ``t``).

Series are exported two ways:

* the ``timeline`` section of a ``repro.bench_report`` document
  (per-site gauge samples, per-interval rates, peaks and totals --
  dict-addressable so ``analysis/diff.py`` ``--fail-on`` thresholds can
  reach e.g. ``timeline.sites.1.peaks.disk.qdepth``);
* Chrome-trace counter (``'C'``) events via :func:`to_chrome_trace`,
  which Perfetto renders as live graphs alongside the span tracks.

Enable with ``cluster.enable_observability(timeline_tick=0.25)``.
"""

from __future__ import annotations

import math
import weakref

from repro.core import TxnState

__all__ = ["Timeline"]

_TERMINAL = (TxnState.RESOLVED, TxnState.ABORTED)


class Timeline:
    """Per-engine gauge/count recorder with post-hoc tick sampling.

    Pure observer: all methods are O(1) appends at record time; the
    tick grid is applied only by :meth:`section`.  Bounded by
    ``capacity`` total recorded points -- once full, further points are
    counted in :attr:`dropped` instead of stored (current gauge values
    keep tracking so later sections do not under-report live state).
    """

    def __init__(self, engine, tick=0.25, capacity=500000):
        if tick <= 0:
            raise ValueError("timeline tick must be positive")
        self.engine = engine
        self.tick = float(tick)
        self.capacity = capacity
        self.points = 0
        self.dropped = 0
        # (site_key, name) -> [(ts, value), ...] gauge change points
        self._series = {}
        # (site_key, name) -> current gauge value
        self._current = {}
        # (site_key, name) -> [(ts, n), ...] interval-count events
        self._counts = {}
        # WalFile -> the pending bytes it last added to its site's gauge
        self._wal_reported = weakref.WeakKeyDictionary()

    @staticmethod
    def _site_key(site):
        return "-" if site is None else str(site)

    # -- subscriptions --------------------------------------------------

    def subscriptions(self):
        """The announcements each gauge and count is read from."""
        return (
            ("txn.state", self._on_txn_state),
            ("lock.grant", self._on_lock_table),
            ("lock.table", self._on_lock_table),
            ("lease.grant", self._on_leases),
            ("lease.recalled", self._on_leases),
            ("disk.queue", self._on_disk_queue),
            ("rpc.send",
             lambda ev: self.gauge_adjust(ev.site_id, "rpc.inflight", 1)),
            ("rpc.done",
             lambda ev: self.gauge_adjust(ev.site_id, "rpc.inflight", -1)),
            ("wal.commit", self._on_wal),
            ("wal.checkpoint", self._on_wal),
            ("wal.recover", self._on_wal),
            # In-core tables die with the site; the series show it.
            ("site.crash", lambda ev: self.zero_site(ev.site_id)),
        )

    def _on_txn_state(self, ev):
        site, old, state = ev.site_id, ev.get("old"), ev.get("state")
        if old is None:
            self.gauge_adjust(site, "txn.active", 1)
        elif state in _TERMINAL and old not in _TERMINAL:
            self.gauge_adjust(site, "txn.active", -1)
        if state == TxnState.COMMITTED:
            self.count(site, "txn.commit")
        elif state == TxnState.ABORTING:
            self.count(site, "txn.abort")

    def _on_lock_table(self, ev):
        """A storage or lease-local lock manager's entries and waiters."""
        manager = ev.get("manager")
        prefix = "lock.table." if manager.role == "storage" else "lease.table."
        self.gauge_set(ev.site_id, prefix + "entries", manager.live_entries())
        self.gauge_set(ev.site_id, prefix + "waiters", manager.waiting)

    def _on_leases(self, ev):
        self.gauge_set(ev.site_id, "lease.live", ev.get("registry").count())

    def _on_disk_queue(self, ev):
        depth = ev.get("depth")
        self.gauge_set(ev.site_id, "disk.qdepth", depth)
        category = ev.get("category")
        if category is not None:
            self.gauge_set(ev.site_id, "disk.qdepth." + category, depth)

    def _on_wal(self, ev):
        """Committed-but-uncheckpointed bytes, summed over a site's WALs."""
        wal = ev.get("wal")
        pending = wal.pending_bytes()
        delta = pending - self._wal_reported.get(wal, 0)
        if delta:
            self.gauge_adjust(ev.site_id, "wal.pending.bytes", delta)
            self._wal_reported[wal] = pending

    # -- recording ------------------------------------------------------

    def gauge_set(self, site, name, value):
        """Record that gauge ``name`` at ``site`` now reads ``value``."""
        key = (self._site_key(site), name)
        value = float(value)
        if self._current.get(key) == value:
            return
        self._current[key] = value
        points = self._series.get(key)
        if points is None:
            points = self._series[key] = []
        ts = self.engine.now
        if points and points[-1][0] == ts:
            points[-1] = (ts, value)
            return
        if self.points >= self.capacity:
            self.dropped += 1
            return
        points.append((ts, value))
        self.points += 1

    def gauge_adjust(self, site, name, delta):
        """Add ``delta`` to the current value of a gauge."""
        key = (self._site_key(site), name)
        self.gauge_set(site, name, self._current.get(key, 0.0) + delta)

    def gauge_value(self, site, name):
        """The current value of a gauge (0.0 if never set)."""
        return self._current.get((self._site_key(site), name), 0.0)

    def count(self, site, name, n=1):
        """Record ``n`` occurrences of an interval-counted event."""
        key = (self._site_key(site), name)
        events = self._counts.get(key)
        if events is None:
            events = self._counts[key] = []
        if self.points >= self.capacity:
            self.dropped += 1
            return
        events.append((self.engine.now, int(n)))
        self.points += 1

    def inject_gauge(self, site, name, points):
        """Install a post-hoc computed gauge series (e.g. the hotness
        scores of :func:`repro.obs.critpath.hotness_view`, which only
        exist once the run is over).  ``points`` is a ``[(ts, value),
        ...]`` list in ascending time order; re-injecting a key replaces
        its series, so callers are idempotent.  Analysis-time bookkeeping
        only -- the simulation is already finished when this runs."""
        key = (self._site_key(site), name)
        old = self._series.get(key)
        if old is not None:
            self.points -= len(old)
        series = [(float(ts), float(v)) for ts, v in points]
        self._series[key] = series
        self._current[key] = series[-1][1] if series else 0.0
        self.points += len(series)

    def zero_site(self, site):
        """Reset every gauge at ``site`` to zero (a site crash wipes
        its in-core tables; the series should show that)."""
        skey = self._site_key(site)
        for key in list(self._current):
            if key[0] == skey and self._current[key] != 0.0:
                self.gauge_set(site, key[1], 0.0)

    # -- raw access (Chrome-trace counter export) -----------------------

    def gauge_points(self):
        """Yield ``(site_key, name, [(ts, value), ...])`` per gauge."""
        for (site, name), points in sorted(self._series.items()):
            yield site, name, points

    def count_points(self):
        """Yield ``(site_key, name, [(ts, cumulative), ...])`` per
        counter, as a running total (what a Perfetto counter track
        should display)."""
        for (site, name), events in sorted(self._counts.items()):
            total = 0
            cumulative = []
            for ts, n in events:
                total += n
                cumulative.append((ts, total))
            yield site, name, cumulative

    # -- report section -------------------------------------------------

    def section(self, until=None):
        """The ``timeline`` report section: per-site series resampled
        onto the tick grid covering ``[0, until]``.

        ``gauges`` hold ``ticks + 1`` samples (boundaries 0..ticks),
        ``rates`` hold ``ticks`` per-interval sums, ``peaks`` the exact
        maximum over change points (not just sampled boundaries), and
        ``totals`` the per-counter grand totals.
        """
        if until is None:
            until = self.engine.now
        until = float(until)
        tick = self.tick
        ticks = max(1, int(math.ceil(until / tick - 1e-9)))
        sites = {}

        def bucket(skey):
            entry = sites.get(skey)
            if entry is None:
                entry = sites[skey] = {
                    "gauges": {}, "rates": {}, "peaks": {}, "totals": {},
                }
            return entry

        for (skey, name), points in sorted(self._series.items()):
            samples = []
            value = 0.0
            index = 0
            npoints = len(points)
            for k in range(ticks + 1):
                boundary = k * tick
                while index < npoints and points[index][0] <= boundary:
                    value = points[index][1]
                    index += 1
                samples.append(value)
            entry = bucket(skey)
            entry["gauges"][name] = samples
            entry["peaks"][name] = max((v for _, v in points), default=0.0)

        for (skey, name), events in sorted(self._counts.items()):
            rates = [0] * ticks
            total = 0
            for ts, n in events:
                rates[min(ticks - 1, int(ts / tick))] += n
                total += n
            entry = bucket(skey)
            entry["rates"][name] = rates
            entry["totals"][name] = total

        return {
            "tick": tick,
            "ticks": ticks,
            "until": until,
            "points": self.points,
            "dropped": self.dropped,
            "sites": sites,
        }
