"""Contention attribution: which resource, and whose fault.

The lock-wait sketch says *how long* requests queued; this module
says *where* and *behind whom*.  Every ``lock.wait`` span carries the
file, the requested byte range, and -- recorded by the lock manager at
queue time -- the holders that blocked it (``blocked_by``).  Every disk
span carries the portion of its time spent queued behind other requests
(``queued``).  From those attributes alone (pure reader, no simulation
hooks fire here) the profiler builds:

* a **top-k contended-resource table**: lock resources keyed by
  (site, file, span-rounded range) and disk resources keyed by
  (site, disk, I/O category), ranked by total blocked nanoseconds;
* a **waits-for edge frequency report**: how often each
  (waiter, blocker) pair appeared and how long those waits cost,
  aggregated over the whole run -- the temporal complement of the
  deadlock detector's instantaneous snapshots;
* a **cycle check** over the aggregated edges, reusing
  :mod:`repro.locking.deadlock`'s graph machinery: an aggregate cycle
  is not necessarily a deadlock (the edges need not have co-existed)
  but marks lock orders worth fixing.

Times are integer virtual nanoseconds, matching
:mod:`repro.obs.critpath` accounting exactly.
"""

from __future__ import annotations

from repro.locking.deadlock import build_wait_graph, find_cycle
from repro.obs.critpath import to_ns

__all__ = [
    "RANGE_BUCKET",
    "holder_label",
    "lock_resources",
    "disk_resources",
    "wait_edges",
    "contention_section",
    "render_contention_table",
]

#: Byte-range rounding for lock-resource keys: waits on nearby records
#: of one file aggregate into the same contended resource.  Matches the
#: lock manager's waiter-index bucket width.
RANGE_BUCKET = 4096


def holder_label(holder) -> str:
    """Compact, JSON-friendly form of a holder key: ``txn:7``/``proc:3``."""
    if isinstance(holder, (tuple, list)) and len(holder) == 2:
        return "%s:%s" % (holder[0], holder[1])
    return str(holder)


def _lock_wait_spans(recorder):
    for span in recorder.spans:
        if span.name == "lock.wait" and span.end is not None:
            yield span


def lock_resources(recorder, range_bucket=RANGE_BUCKET) -> list:
    """Contended lock resources, most blocked time first.

    Each entry aggregates the waits whose requested range starts in one
    ``range_bucket``-wide window of one file, with the blockers seen at
    queue time ranked by the wait time they caused.
    """
    table = {}
    for span in _lock_wait_spans(recorder):
        ns = to_ns(span.end) - to_ns(span.start)
        start = span.attrs.get("start", 0)
        bucket = (start // range_bucket) * range_bucket
        key = (str(span.site_id), span.attrs.get("file", "?"), bucket)
        entry = table.get(key)
        if entry is None:
            entry = table[key] = {
                "site": key[0], "file": key[1],
                "range": [bucket, bucket + range_bucket],
                "waits": 0, "total_ns": 0, "max_ns": 0, "blockers": {},
            }
        entry["waits"] += 1
        entry["total_ns"] += ns
        entry["max_ns"] = max(entry["max_ns"], ns)
        for blocker in span.attrs.get("blocked_by", ()):
            entry["blockers"][blocker] = entry["blockers"].get(blocker, 0) + ns
    out = []
    for _key, entry in sorted(table.items()):
        entry["blockers"] = [
            {"holder": holder, "blocked_ns": ns}
            for holder, ns in sorted(entry["blockers"].items(),
                                     key=lambda kv: (-kv[1], kv[0]))
        ]
        out.append(entry)
    out.sort(key=lambda e: (-e["total_ns"], e["site"], e["file"], e["range"][0]))
    return out


def disk_resources(recorder) -> list:
    """Disk-queue contention: per (site, disk, I/O category), how much
    time requests spent queued behind the arm and how many queued at
    all."""
    table = {}
    for span in recorder.spans:
        if not span.name.startswith("disk.") or span.end is None:
            continue
        queued = span.attrs.get("queued")
        key = (str(span.site_id), span.attrs.get("disk", "?"),
               span.attrs.get("category", "?"))
        entry = table.get(key)
        if entry is None:
            entry = table[key] = {
                "site": key[0], "disk": key[1], "category": key[2],
                "ios": 0, "queued_ios": 0, "queued_ns": 0,
            }
        entry["ios"] += 1
        if queued:
            entry["queued_ios"] += 1
            entry["queued_ns"] += to_ns(queued)
    out = [entry for _key, entry in sorted(table.items())]
    out.sort(key=lambda e: (-e["queued_ns"], e["site"], e["disk"], e["category"]))
    return out


def wait_edges(recorder) -> list:
    """Waits-for edge frequencies over the whole run: every
    (waiter, blocker) pair with how many waits it appeared in and the
    total nanoseconds those waits lasted."""
    table = {}
    for span in _lock_wait_spans(recorder):
        ns = to_ns(span.end) - to_ns(span.start)
        waiter = span.attrs.get("holder")
        for blocker in span.attrs.get("blocked_by", ()):
            key = (waiter, blocker)
            entry = table.get(key)
            if entry is None:
                entry = table[key] = {
                    "waiter": waiter, "blocker": blocker,
                    "count": 0, "total_ns": 0,
                }
            entry["count"] += 1
            entry["total_ns"] += ns
    out = [entry for _key, entry in sorted(table.items())]
    out.sort(key=lambda e: (-e["total_ns"], e["waiter"], e["blocker"]))
    return out


def contention_section(obs, top=10, range_bucket=RANGE_BUCKET) -> dict:
    """The ``contention`` section of a ``repro.bench_report``
    document.  ``top`` bounds the resource and edge tables; the counts
    of everything seen are reported so truncation is never silent."""
    locks = lock_resources(obs.spans, range_bucket=range_bucket)
    disks = disk_resources(obs.spans)
    edges = wait_edges(obs.spans)
    graph = build_wait_graph(
        [[(e["waiter"], e["blocker"]) for e in edges]]
    )
    cycle = find_cycle(graph)
    return {
        "range_bucket": range_bucket,
        "lock_resources": locks[:top],
        "lock_resources_total": len(locks),
        "disk_resources": disks[:top],
        "disk_resources_total": len(disks),
        "edges": edges[:top],
        "edges_total": len(edges),
        "aggregate_cycle": list(cycle) if cycle is not None else None,
    }


def render_contention_table(section) -> str:
    """The contention report as printable text (times in ms)."""
    lines = []
    locks = section.get("lock_resources", ())
    if locks:
        header = "%-6s %-14s %-16s %6s %10s %10s  %s" % (
            "site", "file", "range", "waits", "totalms", "maxms", "top blocker",
        )
        lines += [header, "-" * len(header)]
        for entry in locks:
            blockers = entry.get("blockers") or ()
            top_blocker = (
                "%s (%.3f ms)" % (blockers[0]["holder"],
                                  blockers[0]["blocked_ns"] / 1e6)
                if blockers else "--"
            )
            lines.append("%-6s %-14s %-16s %6d %10.3f %10.3f  %s" % (
                entry["site"], entry["file"],
                "[%d, %d)" % tuple(entry["range"]), entry["waits"],
                entry["total_ns"] / 1e6, entry["max_ns"] / 1e6, top_blocker,
            ))
    disks = [e for e in section.get("disk_resources", ()) if e["queued_ns"]]
    if disks:
        if lines:
            lines.append("")
        header = "%-6s %-8s %-22s %6s %10s %10s" % (
            "site", "disk", "category", "ios", "queued", "queuedms",
        )
        lines += [header, "-" * len(header)]
        for entry in disks:
            lines.append("%-6s %-8s %-22s %6d %10d %10.3f" % (
                entry["site"], entry["disk"], entry["category"],
                entry["ios"], entry["queued_ios"], entry["queued_ns"] / 1e6,
            ))
    edges = section.get("edges", ())
    if edges:
        if lines:
            lines.append("")
        header = "%-12s %-12s %6s %10s" % ("waiter", "blocker", "count", "totalms")
        lines += [header, "-" * len(header)]
        for entry in edges:
            lines.append("%-12s %-12s %6d %10.3f" % (
                entry["waiter"], entry["blocker"], entry["count"],
                entry["total_ns"] / 1e6,
            ))
    cycle = section.get("aggregate_cycle")
    if cycle:
        lines.append("")
        lines.append("aggregate waits-for cycle: %s" % " -> ".join(cycle))
    return "\n".join(lines)
