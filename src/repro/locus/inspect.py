"""Cluster state inspection: human-readable tables of processes,
transactions, locks and storage.

These are the "ps / lsof / ipcs" of the simulated system -- handy in
tests (assert on structured rows), debugging sessions, and example
scripts (print a report after a scenario).  All functions are pure
readers: they never charge simulated time or mutate anything.
"""

from __future__ import annotations

__all__ = [
    "process_table",
    "transaction_table",
    "lock_table",
    "storage_table",
    "cluster_report",
]


def process_table(cluster):
    """Rows: (pid, name, site, state, tid, nesting, open_channels)."""
    rows = []
    for pid in sorted(cluster.procs):
        proc = cluster.procs[pid]
        rows.append({
            "pid": proc.pid,
            "name": proc.name,
            "site": proc.site_id,
            "state": proc.exit_status,
            "tid": str(proc.tid) if proc.tid is not None else "-",
            "nesting": proc.nesting,
            "channels": len(proc.channels),
            "in_transit": proc.in_transit,
        })
    return rows


def transaction_table(cluster):
    """Rows: one per transaction ever started."""
    rows = []
    for txn in cluster.txn_registry.all():
        rows.append({
            "tid": str(txn.tid),
            "state": txn.state,
            "top_pid": txn.top_proc.pid,
            "coordinator": txn.coordinator_site
            if txn.coordinator_site is not None else "-",
            "participants": list(txn.participants),
            "members": sorted(txn.members),
            "files": len(txn.top_proc.file_list),
            "abort_reason": txn.abort_reason or "-",
        })
    return rows


def lock_table(site):
    """Rows: every live lock record at a site (Figure 3, flattened)."""
    rows = []
    for file_id in sorted(site.lock_manager._tables, key=str):
        table = site.lock_manager.table(file_id)
        for rec in table.records():
            rows.append({
                "file": file_id,
                "holder": rec.holder,
                "mode": rec.mode.name,
                "nontrans": rec.nontrans,
                "ranges": list(rec.ranges),
                "retained": list(rec.retained),
            })
        queue = site.lock_manager._queues.get(file_id, ())
        for waiter in queue:
            rows.append({
                "file": file_id,
                "holder": waiter.holder,
                "mode": "WAITING:%s" % waiter.mode.name,
                "nontrans": waiter.nontrans,
                "ranges": [(waiter.start, waiter.end)],
                "retained": [],
            })
    return rows


def storage_table(cluster):
    """Rows: one per volume: files, blocks in use, log depths, I/Os."""
    rows = []
    for site_id in sorted(cluster.sites):
        site = cluster.sites[site_id]
        for vol_id in sorted(site.volumes):
            vol = site.volumes[vol_id]
            rows.append({
                "site": site_id,
                "volume": vol_id,
                "files": len(vol.inos()),
                "blocks": vol.disk.block_count,
                "prepare_log": len(site.prepare_log(vol_id)),
                "io_total": vol.stats.get("io.total"),
            })
        if site.coordinator_log is not None:
            rows[-1]["coordinator_log"] = len(site.coordinator_log)
    return rows


def _render(title, rows, columns):
    if not rows:
        return "== %s ==\n(none)" % title
    widths = {
        c: max(len(c), *(len(str(r.get(c, ""))) for r in rows)) for c in columns
    }
    head = "  ".join(c.ljust(widths[c]) for c in columns)
    lines = ["== %s ==" % title, head, "-" * len(head)]
    for r in rows:
        lines.append("  ".join(str(r.get(c, "")).ljust(widths[c]) for c in columns))
    return "\n".join(lines)


def cluster_report(cluster) -> str:
    """The full system snapshot as one printable string."""
    sections = [
        _render("processes", process_table(cluster),
                ["pid", "name", "site", "state", "tid", "nesting", "channels"]),
        _render("transactions", transaction_table(cluster),
                ["tid", "state", "top_pid", "coordinator", "participants",
                 "abort_reason"]),
    ]
    for site_id in sorted(cluster.sites):
        site = cluster.sites[site_id]
        sections.append(
            _render("locks @ site %s" % site_id, lock_table(site),
                    ["file", "holder", "mode", "ranges", "retained"])
        )
    sections.append(
        _render("storage", storage_table(cluster),
                ["site", "volume", "files", "blocks", "prepare_log",
                 "io_total"])
    )
    obs = getattr(cluster, "obs", None)
    if obs is not None:
        sections.append(
            _render("observability", [{
                "spans": len(obs.spans),
                "dropped": obs.spans.dropped,
                "traces": len(obs.spans.trace_ids()),
            }], ["spans", "dropped", "traces"])
        )
    return "\n\n".join(sections)
