"""The wasted-work view: what aborted attempts cost, exactly.

Raw throughput counts commits; it says nothing about the virtual time
burned by attempts that *didn't* commit.  This view of the blame table
(:mod:`repro.obs.critpath`) books every **aborted** attempt's
critical-path time -- cpu, lock waiting, disk I/O and queueing,
network, 2PC phases, group-commit -- per abort cause (joined against
:mod:`repro.obs.provenance`), per workload mix, and per contended range
(only lock-wait time on aborted critical paths, not whole waits as in
the contention view).  The rows partition each attempt's window, so
the per-category wasted totals sum to the wasted time **exactly**.

The headline number is the **goodput fraction**: committed-attempt
critpath time over all-attempt critpath time.  A cell can post healthy
raw throughput while burning half its time on doomed attempts; this is
the metric that exposes it.
"""

from __future__ import annotations

from .critpath import TOP_RESOURCES, BlameTable, Category

__all__ = ["waste_view", "waste_ledger"]


def waste_view(table) -> dict:
    """The ``waste`` report section.  Aborted attempts with no
    provenance record (provenance off) book under ``"unclassified"``."""
    prov = table.provenance
    # Root tids are the ``str(tid)`` attr; the hub keys by the id
    # objects.  Join in string space.
    causes = ({str(tid): rec.cause for tid, rec in prov.by_tid.items()}
              if prov is not None else {})
    blame = table.blame("txn")
    section = {"attempts": 0, "wasted_ns": 0, "committed_ns": 0,
               "categories": {}, "by_cause": {}, "by_mix": {}}
    for root in table.attempts:
        cats = blame.get(root, {})
        total = sum(cats.values())
        if root.status != "aborted":
            section["committed_ns"] += total
            continue
        section["attempts"] += 1
        section["wasted_ns"] += total
        for cat, ns in cats.items():
            section["categories"][cat] = section["categories"].get(cat, 0) + ns
        cause = causes.get(root.attrs.get("tid"), "unclassified")
        entry = section["by_cause"].setdefault(
            cause, {"attempts": 0, "wasted_ns": 0})
        entry["attempts"] += 1
        entry["wasted_ns"] += total
        mix = root.attrs.get("mix")
        if mix is not None:
            section["by_mix"][mix] = section["by_mix"].get(mix, 0) + total
    hot = {}
    for row in table.rows:
        if row.window == "txn" and row.category == Category.LOCK_WAIT \
                and row.attempt.status == "aborted":
            hot[row.key] = hot.get(row.key, 0) + row.ns
    total_ns = section["committed_ns"] + section["wasted_ns"]
    section["goodput_fraction"] = (section["committed_ns"] / total_ns
                                   if total_ns else 1.0)
    section["hot_ranges"] = [
        {"site": site, "file": file_id, "range_start": range_start,
         "wasted_ns": ns}
        for (site, file_id, range_start), ns in sorted(
            hot.items(), key=lambda kv: (-kv[1], kv[0]))[:TOP_RESOURCES]]
    return section


def waste_ledger(obs) -> dict:
    """The ``waste`` section of ``obs``'s finished run."""
    return waste_view(BlameTable(obs))
