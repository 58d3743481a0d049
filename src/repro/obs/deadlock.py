"""The deadlock detector in the trace.  The detector announces each scan
with a non-empty graph (``deadlock.scan``) and formats nothing; the
:class:`DeadlockView` turns it into ``deadlock.waitfor`` and
``deadlock.cycle`` instant markers, which line up in Perfetto next to
the ``lock.wait`` spans they explain, and pins the cycle's traces."""

from __future__ import annotations

__all__ = ["DeadlockView", "cycle_edges"]


def cycle_edges(ev):
    """``(ordered_edges, closing)`` for a ``deadlock.scan`` event's
    cycle: one ``(waiter, blocker, site, file, start, end, seq)`` tuple
    per consecutive cycle pair, in cycle order, and the most recently
    queued of them (max FIFO seq, site id breaking ties) -- the wait
    that completed the cycle.  Reads the live ``sites``' lock managers,
    never the simulated network, once per scan: the result is kept on
    the event for its later subscribers."""
    edges = ev.get("cycle_edges")
    if edges is None:
        edges = ev.attrs["cycle_edges"] = _cycle_edges(
            ev.get("cycle"), ev.get("sites"))
    return edges


def _cycle_edges(cycle, sites):
    by_pair = {}
    for site in sites:
        for waiter, blocker, file_id, start, end, seq in \
                site.wait_edge_details():
            key = (waiter, blocker)
            entry = (str(site.site_id), str(file_id),
                     int(start), int(end), int(seq))
            if key not in by_pair or entry < by_pair[key]:
                by_pair[key] = entry
    ordered = []
    for i, waiter in enumerate(cycle):
        blocker = cycle[(i + 1) % len(cycle)]
        # A wait that resolved between the RPC snapshot and this read
        # keeps its edge, with an unknown contention point.
        entry = by_pair.get((waiter, blocker), ("?", "?", 0, 0, -1))
        ordered.append(("%s:%s" % waiter, "%s:%s" % blocker) + entry)
    closing = max((edge for edge in ordered if edge[6] >= 0),
                  key=lambda edge: (edge[6], edge[2]), default=None)
    return tuple(ordered), closing


#: ``waiter->blocker@site:file[start,end)``, one resolved edge's label.
_EDGE = "%s->%s@%s:%s[%d,%d)"


class DeadlockView:
    """Instant markers for the detector's scans (always subscribed)."""

    def __init__(self, spans):
        self.spans = spans
        # An edge usually outlives many scans: its label is kept while
        # the edge is in the graph, not formatted again every scan.
        self._labels = {}

    def subscriptions(self):
        return (("deadlock.scan", self._on_scan),)

    def _on_scan(self, ev):
        graph = ev.get("graph")
        known = self._labels
        self._labels = labels = {}
        for w, blockers in graph.items():
            for b in blockers:
                edge = (w, b)
                labels[edge] = known.get(edge) or "%s:%s->%s:%s" % (w + b)
        self.spans.instant(
            "deadlock.waitfor", site_id=ev.site_id,
            edges=tuple(sorted(labels.values())),
            waiters=sum(1 for blockers in graph.values() if blockers),
        )
        cycle = ev.get("cycle")
        if cycle is None:
            return
        ordered, closing = cycle_edges(ev)
        self.spans.instant(
            "deadlock.cycle", site_id=ev.site_id,
            cycle=tuple("%s:%s" % h for h in cycle),
            victim="%s:%s" % ev.get("victim"),
            edges=tuple(_EDGE % e[:6] for e in ordered),
            closing=None if closing is None else _EDGE % closing[:6],
        )
        # Pin every cycle member's trace: the tail sampler must retain
        # all deadlock participants (no-op unsampled).
        txns = ev.get("txns")
        for kind, key in cycle:
            if kind != "txn":
                continue
            span = getattr(txns.get(key), "obs_span", None)
            if span is not None:
                self.spans.mark_trace(span.trace_id)
