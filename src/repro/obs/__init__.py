"""Observability: causal spans, latency sketches, and the observers
that subscribe to the protocol's event stream.

The paper's evaluation rests on kernel instrumentation -- I/O counts,
service times and latencies measured "at the requesting site".  This
package is that layer for the simulated cluster.  Protocol code calls
five hooks on ``engine.obs`` unconditionally and never names an
observer: ``span`` / ``end`` open and close the causal trace
(:class:`SpanRecorder`, one linked tree across sites per distributed
commit), ``observe`` / ``incr`` feed the per-site quantile sketches and
counters (:class:`MetricsHub`), and ``event(kind, site_id, v1, ...)``
announces one protocol transition to the handlers each observer
registered in :class:`Observability`'s one ``kind -> handlers`` table
when it was attached: the protocol monitors (:mod:`.monitor`), the
timeline (:mod:`.timeline`), the SLO tracker (:mod:`.slo`) and the
abort-provenance hub (:mod:`.provenance`).  Fields come by position, in
the order :mod:`repro.sim.kinds` declares them; docs/OBSERVABILITY.md,
"Event stream", lists every kind.  Two more hooks, ``context`` and
``inherit``, carry the current trace context into a message and into a
spawned process.  After a run :mod:`.critpath` and :mod:`.waste` read
the span archive, :mod:`.export` writes Chrome traces and
``repro.bench_report/10`` documents, and :mod:`.lint` checks the span
trees and abort provenance of a live run.  Every check reads the run
itself; nothing here parses a saved trace back.

Everything here is a pure observer measuring *virtual* time: recording
never charges CPU or advances the clock, so an instrumented run
reproduces an uninstrumented one event for event; host seconds are
measured from outside by ``benchmarks/e2e``.  Enable with
``cluster.enable_observability()``, which installs the returned
:class:`Observability` as ``engine.obs`` in place of the null announcer
(:mod:`repro.sim.announcer`) every engine starts with, whose hooks do
nothing.
"""

from __future__ import annotations

from repro.sim.kinds import EVENTS

from .deadlock import DeadlockView
from .export import build_report, to_chrome_trace, write_json
from .metrics import MetricsHub
from .monitor import MonitorEvent, MonitorHub, MonitorViolation
from .schema import REQUIRED_METRICS, SCHEMA_ID, SchemaError, validate_report
from .sketch import QuantileSketch
from .slo import SloObjective, SloTracker
from .provenance import AbortRecord, ProvenanceHub
from .span import Instant, Span, SpanRecorder
from .timeline import Timeline

__all__ = [
    "AbortRecord",
    "Instant",
    "MetricsHub",
    "MonitorEvent",
    "MonitorHub",
    "MonitorViolation",
    "Observability",
    "ProvenanceHub",
    "QuantileSketch",
    "REQUIRED_METRICS",
    "SCHEMA_ID",
    "SchemaError",
    "SloObjective",
    "SloTracker",
    "Span",
    "SpanRecorder",
    "Timeline",
    "build_report",
    "to_chrome_trace",
    "validate_report",
    "write_json",
]


#: The order one kind's subscribers run in, whatever the attach order:
#: the order their code ran inline before it became a subscriber.  The
#: monitors saw a lock, lease, WAL or crash transition before its gauges
#: moved; a transaction's state moved its gauges first.
_ORDER = ("spans", "monitors", "timeline", "slo", "provenance")
_TXN_STATE_ORDER = ("spans", "timeline", "monitors", "slo", "provenance")


class Observability:
    """The per-engine observability context: spans, metrics, and the
    event stream the other observers subscribe to.  Install with
    :meth:`install` (or ``cluster.enable_observability()``); until then
    ``engine.obs`` is :data:`repro.sim.NULL_ANNOUNCER`, whose hooks of
    the same names do nothing."""

    def __init__(self, engine, span_capacity=200000):
        self.engine = engine
        self.spans = SpanRecorder(engine, capacity=span_capacity)
        self.metrics = MetricsHub()
        self.monitors = None   # MonitorHub when attach_monitors() ran
        self.timeline = None   # Timeline when attach_timeline() ran
        self.slo = None        # SloTracker when attach_slo() ran
        self.provenance = None  # ProvenanceHub when attach_provenance() ran
        self._handlers = {}    # kind -> ((rank, handler), ...) in _ORDER
        self.subscribe("spans", DeadlockView(self.spans).subscriptions())

    def subscribe(self, name, subscriptions):
        """Register ``(kind, handler)`` pairs for the subscriber ``name``
        (one of ``_ORDER``; a stable sort keeps attach order within it).
        Every kind must be declared in :data:`repro.sim.kinds.EVENTS`."""
        for kind, handler in subscriptions:
            if kind not in EVENTS:
                raise ValueError("undeclared event kind %r" % (kind,))
            order = _TXN_STATE_ORDER if kind == "txn.state" else _ORDER
            rank = order.index(name)
            self._handlers[kind] = tuple(sorted(
                self._handlers.get(kind, ()) + ((rank, handler),),
                key=lambda entry: entry[0]))

    def install(self):
        """Attach to the engine so layer hooks start recording."""
        self.engine.obs = self
        return self

    def attach_monitors(self, strict=False):
        """Enable the online protocol monitors (idempotent)."""
        if self.monitors is None:
            self.monitors = MonitorHub(self, strict=strict)
            self.subscribe("monitors", self.monitors.subscriptions())
        return self.monitors

    def attach_timeline(self, tick=0.25):
        """Enable gauge/rate time-series recording (idempotent)."""
        if self.timeline is None:
            self.timeline = Timeline(self.engine, tick=tick)
            self.subscribe("timeline", self.timeline.subscriptions())
        if self.slo is not None and self.slo.timeline is None:
            self.slo.timeline = self.timeline
        return self.timeline

    def attach_slo(self):
        """Enable per-mix SLO burn-rate tracking (idempotent).  The
        tracker feeds ``slo.burn.<mix>`` gauges into the timeline when
        one is attached (docs/OBSERVABILITY.md, "SLOs and burn
        rates")."""
        if self.slo is None:
            self.slo = SloTracker(self.engine, timeline=self.timeline)
            self.subscribe("slo", self.slo.subscriptions())
        return self.slo

    def attach_provenance(self):
        """Enable abort-provenance classification (idempotent): every
        abort gets exactly one causal record -- deadlock victim, RPC
        timeout, crash, or explicit AbortTrans (``provenance.CAUSES``)
        -- with retry chaining (docs/OBSERVABILITY.md, "Abort provenance")."""
        if self.provenance is None:
            self.provenance = ProvenanceHub(obs=self)
            self.subscribe("provenance", self.provenance.subscriptions())
        return self.provenance

    def finish_monitors(self):
        """Run end-of-run liveness checks; safe to call repeatedly."""
        if self.monitors is not None:
            self.monitors.finish()
        return self.monitors

    # The hooks protocol code calls --------------------------------------
    # The null announcer (repro.sim.announcer) has the same names and
    # parameters; fields come by position, in the order repro.sim.kinds
    # declares them.  They stay plain functions of the class, where
    # benchmarks/e2e wraps them by name.

    def span(self, name, site_id=None, *values, parent=None, root=False):
        return self.spans._start(name, site_id, parent, root, values)

    def end(self, span, status=None, *values):
        self.spans._end(span, status, values)

    def observe(self, site, name, value, mix=None):
        self.metrics.observe(site, name, value, mix)
        if mix is not None and self.slo is not None:
            self.slo.sample(mix, name, value)

    def incr(self, site, name, value=1):
        self.metrics.incr(site, name, value)

    def context(self):
        return self.spans.current_context()

    def inherit(self, proc):
        self.spans.inherit(proc)

    def event(self, kind, site_id=None, *values):
        """Announce one protocol transition to ``kind``'s subscribers:
        one dict lookup, and no event object, when there are none.  A
        strict monitor's :class:`MonitorViolation` propagates out."""
        handlers = self._handlers.get(kind)
        if handlers is None:
            return
        ev = MonitorEvent(kind, site_id, self.engine.now, values)
        for _rank, handler in handlers:
            handler(ev)
