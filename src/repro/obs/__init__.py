"""Observability: causal spans, latency sketches, and exporters.

The paper's evaluation rests on kernel instrumentation -- I/O counts,
service times and latencies measured "at the requesting site".  This
package is that instrumentation layer for the simulated cluster,
upgraded to modern practice:

* :class:`SpanRecorder` / :class:`Span` -- a causal trace tree opened
  and closed by the kernel around every transaction-lifecycle phase
  (begin, lock acquire, 2PC prepare/commit, WAL write, disk I/O,
  network RPC), with context propagated across process spawns and RPC
  messages so a distributed commit is one linked tree across sites;
* :class:`MetricsHub` / :class:`QuantileSketch` -- relative-error
  latency distributions (p50/p95/p99/p999/max) per site and per
  category, and per workload mix;
* exporters -- Chrome trace-event JSON (loadable in Perfetto), with
  :class:`Instant` markers for point-in-time observations such as
  deadlock-detector wait-for snapshots, and the stable
  ``repro.bench_report/10`` metrics schema consumed by
  ``python -m repro.analysis.report``;
* analysis readers -- :mod:`repro.obs.critpath` (the blame table: one
  pass over the span archive, with the critpath, contention and
  hotness report sections as views of it; :mod:`repro.obs.waste` is
  the fourth view) and :mod:`repro.obs.lint` (span-tree
  well-formedness, ``python -m repro.obs.lint``; ``--monitors``
  replays saved traces through the protocol monitors offline);
* online verification -- :mod:`repro.obs.monitor` (2PC / lock / lease /
  WAL protocol state machines fed per-event, violations as Instant
  markers + ``monitor.violations.<check>`` counters, ``strict=True``
  raises :class:`MonitorViolation`);
* time series -- :mod:`repro.obs.timeline` (gauge/rate series over
  virtual time, post-hoc tick sampling, Chrome-trace counter events).

Everything here is a pure observer of the simulation: recording a span
or a sample never charges CPU and never advances the virtual clock, so
instrumented runs reproduce uninstrumented results event for event.
Everything here also measures *virtual* time only; what the simulator
costs in host seconds is measured from outside by ``benchmarks/e2e``.

Enable on a cluster with ``cluster.enable_observability()``; the
returned :class:`Observability` object is also installed as
``engine.obs``, where every layer's hooks find it.
"""

from __future__ import annotations

from .export import build_report, metrics_to_json, to_chrome_trace, write_json
from .metrics import MetricsHub
from .monitor import MonitorHub, MonitorViolation
from .schema import REQUIRED_METRICS, SCHEMA_ID, SchemaError, validate_report
from .sketch import QuantileSketch
from .slo import SloObjective, SloTracker
from .provenance import AbortRecord, ProvenanceHub
from .span import Instant, Span, SpanRecorder, TailSampler
from .timeline import Timeline

__all__ = [
    "AbortRecord",
    "Instant",
    "MetricsHub",
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
    "TailSampler",
    "Timeline",
    "build_report",
    "metrics_to_json",
    "to_chrome_trace",
    "validate_report",
    "write_json",
]


class Observability:
    """The per-engine observability context: spans + metrics.

    Install with :meth:`install` (or ``cluster.enable_observability()``)
    -- instrumentation hooks throughout the stack check ``engine.obs``
    and stay inert while it is None.
    """

    def __init__(self, engine, span_capacity=200000):
        self.engine = engine
        self.spans = SpanRecorder(engine, capacity=span_capacity)
        self.metrics = MetricsHub()
        self.monitors = None   # MonitorHub when attach_monitors() ran
        self.timeline = None   # Timeline when attach_timeline() ran
        self.slo = None        # SloTracker when attach_slo() ran
        self.provenance = None  # ProvenanceHub when attach_provenance() ran

    def install(self):
        """Attach to the engine so layer hooks start recording."""
        self.engine.obs = self
        return self

    def attach_monitors(self, strict=False):
        """Enable the online protocol monitors (idempotent; ``strict``
        upgrades an existing hub)."""
        if self.monitors is None:
            self.monitors = MonitorHub(obs=self, strict=strict)
        elif strict:
            self.monitors.strict = True
        return self.monitors

    def attach_timeline(self, tick=0.25):
        """Enable gauge/rate time-series recording (idempotent)."""
        if self.timeline is None:
            self.timeline = Timeline(self.engine, tick=tick)
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
        elif self.slo.timeline is None:
            self.slo.timeline = self.timeline
        return self.slo

    def attach_provenance(self):
        """Enable abort-provenance classification (idempotent): every
        abort gets exactly one causal record -- deadlock victim, lock
        timeout, RPC timeout, crash, or explicit AbortTrans -- with
        retry chaining (docs/OBSERVABILITY.md, "Abort provenance")."""
        if self.provenance is None:
            from .provenance import ProvenanceHub

            self.provenance = ProvenanceHub(obs=self)
        return self.provenance

    def attach_sampler(self, head_rate=0.05, slow_percentile=99.0,
                       min_slow_count=50, slow_window=256):
        """Enable tail-based trace-retention sampling (idempotent; see
        docs/OBSERVABILITY.md, "Trace sampling")."""
        return self.spans.attach_sampler(
            head_rate=head_rate, slow_percentile=slow_percentile,
            min_slow_count=min_slow_count, slow_window=slow_window,
        )

    def finish_monitors(self):
        """Run end-of-run liveness checks; safe to call repeatedly."""
        if self.monitors is not None:
            self.monitors.finish()
        return self.monitors

    def uninstall(self):
        """Detach; hooks go inert again (recorded data is kept)."""
        if self.engine.obs is self:
            self.engine.obs = None
        return self

    # Convenience pass-throughs used by instrumentation sites -----------
    # One call deep: each hands its arguments on positionally.  They
    # stay plain functions of the class, where benchmarks/e2e wraps
    # them by name.

    def span(self, name, site_id=None, parent=None, root=False, **attrs):
        return self.spans._start(name, site_id, parent, root, attrs)

    def end(self, span, status=None, **attrs):
        self.spans._end(span, status, attrs)

    def observe(self, site, name, value, mix=None):
        self.metrics.observe(site, name, value, mix)
        if mix is not None and self.slo is not None:
            if self.slo.sample(mix, name, value):
                # A bound-violating sample pins the offending txn's
                # trace so the tail sampler keeps its whole tree.
                self.spans.mark_trace()

    def incr(self, site, name, value=1):
        self.metrics.incr(site, name, value)

    def event(self, kind, site_id=None, **attrs):
        """Feed one protocol event to the monitors (no-op when the
        monitor layer is not attached)."""
        if self.monitors is not None:
            self.monitors.event(kind, site_id=site_id, **attrs)
