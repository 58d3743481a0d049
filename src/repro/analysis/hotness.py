"""Windowed contention hotness: where contention is *trending*.

PR 4's contention attribution (:mod:`repro.analysis.contention`) is a
whole-run aggregate -- it names the hottest (site, file, range) keys
but not *when* they were hot, so a migrating hotspot and a steady one
look identical.  This module adds the time axis ROADMAP item 4's
sharding controller needs:

* the run is cut into fixed virtual-time **windows**; every closed
  ``lock.wait`` span books its wait time into the windows it overlaps,
  per (site, file, 4 KiB range) key;
* abort blame joins in from :mod:`repro.obs.provenance`: a deadlock
  victim's *closing* contention range and a lock-timeout's blocked
  range each count one abort against their key's window;
* each key gets an **EWMA hotness score** updated once per window
  (``score = alpha * x + (1 - alpha) * score`` where ``x`` is the
  key's wait-seconds in the window plus ``abort_weight`` per blamed
  abort), so recent heat dominates and cooled-off keys decay;
* the section reports the top-K keys by final score, their full score
  timelines, and a per-window top-key ranking -- the drift signal;
* when a :class:`~repro.obs.timeline.Timeline` is attached, a
  ``hotness.<site>`` gauge series (the max EWMA score over the site's
  keys, stepped at window boundaries) is injected so Perfetto and the
  ``timeline`` section carry the trend next to queue depths.

Pure reader: everything is computed post hoc from the span archive and
the provenance records; nothing touches the engine or the clock.
"""

from __future__ import annotations

import math

__all__ = ["RANGE_BUCKET", "hotness_section", "attach_hotness_gauges",
           "render_hotness_table"]

#: Contention-range bucket width, matching repro.analysis.contention.
RANGE_BUCKET = 4096

#: Default EWMA smoothing factor: ~70% of a key's score decays within
#: three quiet windows.
ALPHA = 0.3

#: Score contribution of one blamed abort, in equivalent wait-seconds.
ABORT_WEIGHT = 0.25


def _range_key(site, file_id, start):
    return (
        "-" if site is None else str(site),
        str(file_id),
        int(start) // RANGE_BUCKET * RANGE_BUCKET,
    )


def _abort_points(prov):
    """(time, key) for every abort record that blames a byte range:
    a deadlock's closing edge, or a lock timeout's blocked range."""
    if prov is None:
        return
    for rec in prov.records:
        detail = rec.detail
        if not detail:
            continue
        if rec.cause == "deadlock":
            closing = detail.get("closing")
            if closing and len(closing) >= 6:
                # (waiter, blocker, site, file, start, end)
                _w, _b, site, file_id, start, _end = closing[:6]
                yield rec.time, _range_key(site, file_id, start)
        elif rec.cause == "lock_timeout":
            file_id = detail.get("file")
            start = detail.get("start")
            if file_id is not None and start is not None:
                yield rec.time, _range_key(detail.get("lock_site"), file_id,
                                           start)


def hotness_section(obs, window=1.0, until=None, alpha=ALPHA, top=5,
                    abort_weight=ABORT_WEIGHT) -> dict:
    """The ``hotness`` section of a ``repro.bench_report`` document.

    Deterministic pure reader.  ``window`` is the bucket width in
    virtual seconds; ``until`` defaults to the engine clock.
    """
    if until is None:
        until = obs.engine.now
    until = float(until)
    nwin = max(1, int(math.ceil(until / window - 1e-9)))

    # (key, window) -> wait seconds;  (key, window) -> abort count
    waits = {}
    aborts = {}
    keys = set()
    for span in obs.spans.spans:
        if span.name != "lock.wait" or span.end is None:
            continue
        file_id = span.attrs.get("file")
        start = span.attrs.get("start")
        if file_id is None or start is None:
            continue
        key = _range_key(span.site_id, file_id, start)
        keys.add(key)
        lo, hi = span.start, span.end
        w0 = min(nwin - 1, int(lo / window))
        w1 = min(nwin - 1, int(max(lo, hi - 1e-12) / window))
        for w in range(w0, w1 + 1):
            a = max(lo, w * window)
            b = min(hi, (w + 1) * window)
            if b > a:
                waits[(key, w)] = waits.get((key, w), 0.0) + (b - a)
    for t, key in _abort_points(getattr(obs, "provenance", None)):
        keys.add(key)
        w = min(nwin - 1, max(0, int(t / window)))
        aborts[(key, w)] = aborts.get((key, w), 0) + 1

    # EWMA sweep per key across all windows.
    scores = {}     # key -> [score per window]
    for key in keys:
        series = []
        score = 0.0
        for w in range(nwin):
            x = waits.get((key, w), 0.0) \
                + abort_weight * aborts.get((key, w), 0)
            score = alpha * x + (1.0 - alpha) * score
            series.append(score)
        scores[key] = series

    order = sorted(
        keys, key=lambda k: (-scores[k][-1], -max(scores[k]), k))
    ranking = []
    for w in range(nwin):
        live = sorted(
            (k for k in keys
             if scores[k][w] > 1e-12),
            key=lambda k: (-scores[k][w], k))
        ranking.append(["%s:%s:%d" % k for k in live[:top]])

    rows = []
    for key in order[:top]:
        site, file_id, range_start = key
        rows.append({
            "site": site,
            "file": file_id,
            "range_start": range_start,
            "score": scores[key][-1],
            "peak_score": max(scores[key]),
            "wait_s": sum(waits.get((key, w), 0.0) for w in range(nwin)),
            "aborts": sum(aborts.get((key, w), 0) for w in range(nwin)),
            "scores": [round(s, 9) for s in scores[key]],
        })
    return {
        "window_s": window,
        "windows": nwin,
        "alpha": alpha,
        "abort_weight": abort_weight,
        "keys": len(keys),
        "top": rows,
        "ranking": ranking,
    }


def attach_hotness_gauges(obs, section) -> int:
    """Inject ``hotness.<site>`` gauge series (max EWMA score across
    the site's keys, stepped at window boundaries) into the attached
    timeline.  Returns the number of series injected; no-op without a
    timeline.  Retention-only bookkeeping -- the simulation never sees
    it."""
    timeline = obs.timeline
    if timeline is None:
        return 0
    window = section["window_s"]
    per_site = {}
    for row in section["top"]:
        site = row["site"]
        series = per_site.setdefault(site, [0.0] * section["windows"])
        for w, score in enumerate(row["scores"]):
            if score > series[w]:
                series[w] = score
    injected = 0
    for site in sorted(per_site):
        points = [((w + 1) * window, score)
                  for w, score in enumerate(per_site[site])]
        timeline.inject_gauge(site, "hotness.%s" % site, points)
        injected += 1
    return injected


def render_hotness_table(section, top=5) -> str:
    """Human-readable ``== hotness ==`` table for the report CLI."""
    lines = []
    lines.append("%-6s %-18s %10s %10s %8s %7s" % (
        "site", "file:range", "score", "peak", "wait_ms", "aborts"))
    lines.append("-" * 64)
    for row in section.get("top", [])[:top]:
        lines.append("%-6s %-18s %10.4f %10.4f %8.1f %7d" % (
            row["site"],
            "%s:%d" % (row["file"], row["range_start"]),
            row["score"], row["peak_score"],
            row["wait_s"] * 1e3, row["aborts"]))
    if not section.get("top"):
        lines.append("(no contention recorded)")
    lines.append("windows=%d x %gs  keys=%d  alpha=%g" % (
        section.get("windows", 0), section.get("window_s", 0.0),
        section.get("keys", 0), section.get("alpha", ALPHA)))
    return "\n".join(lines)
