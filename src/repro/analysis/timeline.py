"""Timeline viewer: ``python -m repro.analysis.timeline REPORT.json``.

Renders the ``timeline`` section of a ``repro.bench_report`` document
as per-site ASCII sparklines (one row per gauge/rate series) so a
regression's *shape* -- a lock-table plateau, a disk-queue convoy, a
lease population collapse after a recall storm -- is visible straight
from the committed ``BENCH_*.json`` artifacts, no Perfetto required.

Modes:

* default: sparkline rows, grouped by site, with min/max/last columns;
* ``--csv``: the same series as ``site,kind,name,t0,t1,...`` rows for
  spreadsheet or plotting pipelines.

This is a viewer only: exit 0, or 2 on an unreadable report.  Threshold
gates on a report (``timeline.points >= 1``,
``monitors.total_violations == 0``) go through the one gate CLI,
``python -m repro.analysis.diff REPORT REPORT --fail-on ...``.
"""

from __future__ import annotations

import argparse
import json
import sys

__all__ = ["render_sparklines", "render_csv", "main"]

_TICKS = " .:-=+*#%@"


def _spark(values, width):
    """``values`` resampled to ``width`` characters of bar height."""
    if not values:
        return ""
    if len(values) > width:
        # Max-pool: a one-tick spike must stay visible after resampling.
        step = len(values) / width
        values = [
            max(values[int(i * step):max(int((i + 1) * step), int(i * step) + 1)])
            for i in range(width)
        ]
    lo, hi = min(values), max(values)
    span = hi - lo
    if span <= 0:
        return _TICKS[1 if hi > 0 else 0] * len(values)
    scale = len(_TICKS) - 1
    return "".join(
        _TICKS[1 + int((v - lo) / span * (scale - 1) + 0.5)] for v in values
    )


def _series(section):
    """Yield ``(site, kind, name, values)`` for every timeline series."""
    for site, groups in sorted(section.get("sites", {}).items(),
                               key=lambda kv: str(kv[0])):
        for name, values in sorted(groups.get("gauges", {}).items()):
            yield site, "gauge", name, values
        for name, values in sorted(groups.get("rates", {}).items()):
            yield site, "rate", name, values


def render_sparklines(section, width=60) -> str:
    """The timeline section as per-site sparkline rows."""
    lines = [
        "timeline: %d ticks x %gs (until t=%.4f), %d points%s" % (
            section.get("ticks", 0), section.get("tick", 0.0),
            section.get("until", 0.0), section.get("points", 0),
            ", %d dropped" % section["dropped"]
            if section.get("dropped") else "",
        )
    ]
    last_site = None
    for site, kind, name, values in _series(section):
        if site != last_site:
            lines.append("")
            lines.append("site %s" % site)
            last_site = site
        lines.append("  %-5s %-24s |%s| min=%g max=%g last=%g" % (
            kind, name, _spark(values, width),
            min(values) if values else 0, max(values) if values else 0,
            values[-1] if values else 0,
        ))
    return "\n".join(lines)


def render_csv(section) -> str:
    """The timeline series as CSV (header + one row per series)."""
    ticks = section.get("ticks", 0)
    tick = section.get("tick", 0.0)
    width = max(ticks + 1, 1)
    header = ["site", "kind", "name"] + [
        "%g" % (k * tick) for k in range(width)
    ]
    rows = [",".join(header)]
    for site, kind, name, values in _series(section):
        padded = list(values) + [""] * (width - len(values))
        rows.append(",".join(
            [str(site), kind, name] + ["%g" % v if v != "" else ""
                                       for v in padded]
        ))
    return "\n".join(rows)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.timeline",
        description="Render the timeline section of a bench report as "
                    "ASCII sparklines or CSV.",
    )
    parser.add_argument("report", help="path to a repro.bench_report JSON")
    parser.add_argument("--csv", action="store_true",
                        help="emit CSV rows instead of sparklines")
    parser.add_argument("--width", type=int, default=60,
                        help="sparkline width in characters (default 60)")
    args = parser.parse_args(argv)

    try:
        with open(args.report) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        print("error: cannot read %s: %s" % (args.report, exc),
              file=sys.stderr)
        return 2
    section = doc.get("timeline")
    if not isinstance(section, dict):
        print("error: %s has no timeline section (schema %r; regenerate "
              "with timeline_tick set)"
              % (args.report, doc.get("schema")), file=sys.stderr)
        return 2

    try:
        print(render_csv(section) if args.csv
              else render_sparklines(section, width=max(args.width, 10)))
    except BrokenPipeError:       # e.g. piped into head
        sys.stderr.close()        # suppress the shutdown re-raise
    return 0


if __name__ == "__main__":
    sys.exit(main())
