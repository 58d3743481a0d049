"""The wasted-work ledger: what aborted attempts cost, exactly.

Raw throughput counts commits; it says nothing about the virtual time
burned by attempts that *didn't* commit.  This module re-walks the
critical-path blame partition (:mod:`repro.obs.critpath`) for every
**aborted** transaction root and books the wasted virtual time -- cpu,
lock waiting, disk I/O and queueing, network, 2PC phases, group-commit
-- per abort cause (joined against :mod:`repro.obs.provenance`), per
workload mix, and per (site, file, 4 KiB range) contention point.

Because the critical-path sweep is an exact integer-nanosecond
partition, the per-category wasted totals sum to the total
aborted-attempt critpath time **exactly** (no tolerance) -- the same
invariant the ``critpath`` section enforces for committed work, now
extended to the waste side and checked by the schema validator.

The headline number is the **goodput fraction**: committed-attempt
critpath time over all-attempt critpath time.  A cell can post healthy
raw throughput while burning half its time on doomed attempts; this is
the metric that exposes it.

Pure reader of the span archive; nothing here touches the engine.
"""

from __future__ import annotations

from .critpath import Category, transaction_paths

__all__ = ["RANGE_BUCKET", "waste_ledger", "waste_section",
           "render_waste_table"]

#: Contention-range bucket width, matching repro.analysis.contention.
RANGE_BUCKET = 4096


def waste_ledger(obs, now=None) -> dict:
    """Compute the full ledger from an :class:`Observability` archive.

    Returns the ``waste`` report section (see :func:`waste_section`).
    The join against abort causes uses ``obs.provenance`` when attached;
    aborted roots with no provenance record (provenance off) book under
    ``"unclassified"``.
    """
    paths = transaction_paths(obs.spans, now=now)
    prov = getattr(obs, "provenance", None)
    # Critpath tids come from the txn root span's ``str(tid)`` attr;
    # the hub is keyed by the id objects.  Join in string space.
    by_tid = ({str(tid): rec for tid, rec in prov.by_tid.items()}
              if prov is not None else {})

    wasted_ns = 0
    committed_ns = 0
    attempts = 0
    categories = {}
    by_cause = {}
    by_mix = {}
    hot = {}
    for path in paths:
        if path.status != "aborted":
            committed_ns += path.total_ns
            continue
        attempts += 1
        wasted_ns += path.total_ns
        for cat, ns in path.categories.items():
            categories[cat] = categories.get(cat, 0) + ns
        rec = by_tid.get(path.tid)
        cause = rec.cause if rec is not None else "unclassified"
        entry = by_cause.setdefault(cause, {"attempts": 0, "wasted_ns": 0})
        entry["attempts"] += 1
        entry["wasted_ns"] += path.total_ns
        mix = path.root.attrs.get("mix")
        if mix is not None:
            by_mix[mix] = by_mix.get(mix, 0) + path.total_ns
        for seg in path.segments:
            if seg.category != Category.LOCK_WAIT:
                continue
            span = seg.span
            file_id = span.attrs.get("file")
            start = span.attrs.get("start")
            if file_id is None or start is None:
                continue
            key = (
                "-" if span.site_id is None else str(span.site_id),
                str(file_id),
                int(start) // RANGE_BUCKET * RANGE_BUCKET,
            )
            hot[key] = hot.get(key, 0) + seg.ns

    total_ns = committed_ns + wasted_ns
    hot_rows = [
        {"site": site, "file": file_id, "range_start": range_start,
         "wasted_ns": ns}
        for (site, file_id, range_start), ns in sorted(
            hot.items(), key=lambda kv: (-kv[1], kv[0]))
    ]
    return {
        "attempts": attempts,
        "wasted_ns": wasted_ns,
        "committed_ns": committed_ns,
        "goodput_fraction": (
            committed_ns / total_ns if total_ns else 1.0
        ),
        "categories": dict(sorted(categories.items())),
        "by_cause": dict(sorted(by_cause.items())),
        "by_mix": dict(sorted(by_mix.items())),
        "hot_ranges": hot_rows[:10],
    }


def waste_section(obs, now=None) -> dict:
    """The ``waste`` section of a ``repro.bench_report`` document."""
    return waste_ledger(obs, now=now)


def render_waste_table(section) -> str:
    """Human-readable ``== waste ==`` table for the report CLI."""
    lines = []
    wasted = section.get("wasted_ns", 0)
    lines.append("%-14s %12s %8s" % ("category", "wasted_ms", "share"))
    lines.append("-" * 36)
    cats = section.get("categories", {})
    for cat in sorted(cats, key=lambda c: (-cats[c], c)):
        ns = cats[cat]
        share = ns / wasted if wasted else 0.0
        lines.append("%-14s %12.3f %7.1f%%" % (cat, ns / 1e6, 100.0 * share))
    if not cats:
        lines.append("%-14s %12.3f %8s" % ("(none)", 0.0, "-"))
    lines.append("")
    causes = section.get("by_cause", {})
    for cause in sorted(causes, key=lambda c: (-causes[c]["wasted_ns"], c)):
        entry = causes[cause]
        lines.append("cause %-12s attempts=%-5d wasted=%.3f ms" % (
            cause, entry["attempts"], entry["wasted_ns"] / 1e6))
    lines.append(
        "aborted_attempts=%d  wasted=%.3f ms  goodput=%.4f" % (
            section.get("attempts", 0), wasted / 1e6,
            section.get("goodput_fraction", 1.0)))
    return "\n".join(lines)
