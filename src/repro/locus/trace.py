"""Execution tracing.

A :class:`Tracer` attached to a cluster records every syscall and
transaction-lifecycle event with its virtual timestamp, site and
process.  Because the simulator is deterministic, a trace is a complete
and reproducible account of a run -- the equivalent of the kernel
instrumentation the paper's authors used to take their measurements.

Enable with ``cluster.enable_tracing()``; query with
:meth:`Tracer.select` or dump human-readable lines with
:meth:`Tracer.format`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

__all__ = ["TraceEvent", "Tracer"]


@dataclass(frozen=True)
class TraceEvent:
    time: float
    site_id: int
    pid: int
    kind: str
    detail: tuple  # sorted (key, value) pairs; hashable and stable

    def get(self, key, default=None):
        for k, v in self.detail:
            if k == key:
                return v
        return default

    def format(self):
        detail = " ".join("%s=%r" % (k, v) for k, v in self.detail)
        return "%10.4f  site=%-3s pid=%-4d %-12s %s" % (
            self.time, self.site_id, self.pid, self.kind, detail
        )


class Tracer:
    """An append-only, optionally bounded, event log."""

    def __init__(self, capacity=100000):
        self.capacity = capacity
        self.events = []
        self.dropped = 0
        self._by_kind = {}  # kind -> [TraceEvent], in record order
        self._by_pid = {}   # pid  -> [TraceEvent], in record order

    def record(self, time, site_id, pid, kind, **detail):
        if self.capacity is not None and len(self.events) >= self.capacity:
            self.dropped += 1
            if self.dropped == 1:
                warnings.warn(
                    "Tracer capacity (%d events) reached; further events "
                    "are being dropped. Raise it with "
                    "enable_tracing(capacity=...) or pass capacity=None "
                    "for an unbounded trace." % (self.capacity,),
                    RuntimeWarning,
                    stacklevel=2,
                )
            return
        if "tid" in detail:
            # Callers pass the id itself: formatting it is the tracer's
            # cost, paid only when a tracer is attached.
            detail["tid"] = str(detail["tid"])
        ev = TraceEvent(
            time=time, site_id=site_id, pid=pid, kind=kind,
            detail=tuple(sorted(detail.items())),
        )
        self.events.append(ev)
        self._by_kind.setdefault(kind, []).append(ev)
        self._by_pid.setdefault(pid, []).append(ev)

    def select(self, kind=None, pid=None, site_id=None):
        """Events matching every given filter, in order.

        Kind and pid lookups run off per-key indices, so a filtered
        query costs O(smallest candidate list), not O(total events).
        """
        candidates = self.events
        if kind is not None:
            candidates = self._by_kind.get(kind, [])
        if pid is not None:
            by_pid = self._by_pid.get(pid, [])
            if len(by_pid) < len(candidates):
                candidates = by_pid
        out = []
        for ev in candidates:
            if kind is not None and ev.kind != kind:
                continue
            if pid is not None and ev.pid != pid:
                continue
            if site_id is not None and ev.site_id != site_id:
                continue
            out.append(ev)
        return out

    def kinds(self):
        return sorted(self._by_kind)

    def format(self, **filters):
        return "\n".join(ev.format() for ev in self.select(**filters))

    def clear(self):
        self.events = []
        self.dropped = 0
        self._by_kind = {}
        self._by_pid = {}

    def __len__(self):
        return len(self.events)
