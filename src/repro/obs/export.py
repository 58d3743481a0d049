"""Exporters: Chrome trace-event JSON (Perfetto-loadable) and the
stable metrics/report JSON schema.

The Chrome trace format renders each span as a complete ("X") event on
a (pid, tid) track; we map the simulated *site* to the trace pid and
the simulation process's deterministic track number to the tid, so
concurrent activities at one site appear as parallel tracks and a
distributed commit reads left-to-right across sites.  ``args`` carries
the causal ids (trace_id / span_id / parent_id) plus the span's
attributes, and cross-track parent links are emitted as flow events so
Perfetto draws the arrows from coordinator to participants.

Load the output at https://ui.perfetto.dev (or chrome://tracing).
"""

from __future__ import annotations

import json

__all__ = [
    "to_chrome_trace",
    "metrics_to_json",
    "build_report",
    "write_json",
]

_US = 1e6  # trace-event timestamps are microseconds


def _site_pid(site_id):
    """Map a site id onto a Chrome trace pid (0 = no site / background)."""
    if site_id is None:
        return 0
    try:
        return int(site_id)
    except (TypeError, ValueError):
        return abs(hash(str(site_id))) % 10000 + 1000


def to_chrome_trace(recorder, now=None, metrics=None, timeline=None) -> dict:
    """Chrome trace-event JSON for every recorded span.

    Spans still open are rendered up to ``now`` (default: the
    recorder's engine clock) with ``status: open`` in their args.

    ``timeline`` (a :class:`~repro.obs.timeline.Timeline`) adds counter
    ('C') events for every gauge change point and cumulative count, and
    ``metrics`` (a MetricsHub) adds one final counter event per named
    counter -- Perfetto renders both as live graphs above the span
    tracks.
    """
    if now is None:
        now = recorder._engine.now
    events = []
    seen_tracks = set()

    def _name_track(pid, site_id):
        if (pid, site_id) in seen_tracks:
            return
        seen_tracks.add((pid, site_id))
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": "site %s" % (site_id,)
                     if site_id is not None else "background"},
        })

    for span in recorder.spans:
        pid = _site_pid(span.site_id)
        _name_track(pid, span.site_id)
        end = span.end if span.end is not None else now
        args = {
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
        }
        if span.status is not None:
            args["status"] = span.status
        elif span.end is None:
            args["status"] = "open"
        for key, value in sorted(span.attrs.items()):
            args[key] = value if isinstance(
                value, (int, float, str, bool, type(None))
            ) else str(value)
        events.append({
            "name": span.name,
            "cat": span.name.split(".", 1)[0],
            "ph": "X",
            "ts": span.start * _US,
            "dur": max(end - span.start, 0.0) * _US,
            "pid": pid,
            "tid": span.tid,
            "args": args,
        })
        # Cross-track causality: draw a flow arrow from the parent span
        # when the child runs on a different (pid, tid) track.
        parent = recorder.get(span.parent_id) if span.parent_id else None
        if parent is not None and (
            _site_pid(parent.site_id) != pid or parent.tid != span.tid
        ):
            flow = {"cat": "flow", "id": span.span_id, "name": "causal"}
            events.append(dict(
                flow, ph="s", ts=span.start * _US,
                pid=_site_pid(parent.site_id), tid=parent.tid,
            ))
            events.append(dict(
                flow, ph="f", bp="e", ts=span.start * _US,
                pid=pid, tid=span.tid,
            ))
    # Instant markers (e.g. deadlock-detector wait-for snapshots) render
    # as 'i' events on the recording site's track, process-scoped so
    # Perfetto draws them next to the spans they annotate.
    for marker in recorder.instants:
        pid = _site_pid(marker.site_id)
        _name_track(pid, marker.site_id)
        args = {}
        for key, value in sorted(marker.attrs.items()):
            args[key] = value if isinstance(
                value, (int, float, str, bool, type(None))
            ) else str(value)
        events.append({
            "name": marker.name,
            "cat": marker.name.split(".", 1)[0],
            "ph": "i",
            "s": "p",
            "ts": marker.ts * _US,
            "pid": pid,
            "tid": marker.tid,
            "args": args,
        })

    def _counter(site_key, name, ts, value):
        pid = 0 if site_key in (None, "-") else _site_pid(site_key)
        _name_track(pid, None if site_key in (None, "-") else site_key)
        events.append({
            "name": name,
            "cat": name.split(".", 1)[0],
            "ph": "C",
            "ts": ts * _US,
            "pid": pid,
            "tid": 0,
            "args": {"value": value},
        })

    if timeline is not None:
        for site_key, name, points in timeline.gauge_points():
            for ts, value in points:
                _counter(site_key, name, ts, value)
        for site_key, name, cumulative in timeline.count_points():
            for ts, total in cumulative:
                _counter(site_key, name, ts, total)
    if metrics is not None:
        # Monotonic event counters have no recorded time axis; their
        # final values still belong in the trace as a closing sample.
        for site, counters in sorted(
            metrics.counters_by_site().items(), key=lambda kv: str(kv[0])
        ):
            for name, value in sorted(counters.items()):
                _counter(site, name, now, value)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def metrics_to_json(hub) -> dict:
    """The stable per-site metrics payload: {site: {name: summary}}."""
    return hub.by_site()


def build_report(cluster, scenario="") -> dict:
    """The full ``BENCH_report.json`` document for an observed cluster.

    Stable schema (see :mod:`repro.obs.schema`): deliberately contains
    no wall-clock timestamps so reruns of a deterministic scenario are
    byte-identical.
    """
    from repro import __version__
    from .schema import SCHEMA_ID

    obs = cluster.obs
    if obs is None:
        raise ValueError("cluster has no observability attached; "
                         "call cluster.enable_observability() first")
    # End-of-run liveness checks run before the span counts are taken:
    # a violation found here still lands in the trace and the report.
    obs.finish_monitors()
    span_stats = {
        "recorded": len(obs.spans),
        "dropped": obs.spans.dropped,
        "traces": len(obs.spans.trace_ids()),
        "instants": len(obs.spans.instants),
    }
    doc = {
        "schema": SCHEMA_ID,
        "generator": "repro %s" % __version__,
        "scenario": scenario,
        "virtual_time": cluster.engine.now,
        "sites": metrics_to_json(obs.metrics),
        "counters": obs.metrics.counters_by_site(),
        "spans": span_stats,
    }
    sketches = obs.metrics.sketches_by_site()
    if sketches:
        doc["sketches"] = sketches
    if obs.timeline is not None:
        doc["timeline"] = obs.timeline.section(until=cluster.engine.now)
    if obs.monitors is not None:
        doc["monitors"] = obs.monitors.section()
    if obs.slo is not None and obs.slo.mixes():
        # Burn windows follow the timeline grid when one is configured,
        # so the slo series lines up with the gauge/rate ticks.
        window = obs.timeline.tick if obs.timeline is not None else 0.25
        doc["slo"] = obs.slo.section(window=window, until=cluster.engine.now)
    # Scenario-provided extra sections (e.g. the throughput scenario's
    # batching on/off comparison); validated by repro.obs.schema.
    for key, value in (getattr(cluster, "report_sections", None) or {}).items():
        doc[key] = value
    return doc


def write_json(path, doc):
    """Write a JSON document with stable key order and a trailing newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
