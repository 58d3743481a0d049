"""Scaling sweep: ``python -m repro.analysis.scaling``.

Sweeps the sites x clients x skew grid, one
:class:`~repro.analysis.cell.Cell` per point, of the scaling workload
(:class:`~repro.workloads.ScalingDriver`: thousands of Zipf-skewed
closed-loop clients).  The cell config is what a saturated-but-live
cluster needs: ``commit_batching`` on (without it, commits serialize
on the per-site log and lock convoys collapse the run) and a long
``rpc_timeout`` (a slow-but-alive site must not fail prepares
spuriously at high concurrency).

``python -m repro.analysis.scaling --workers 4`` writes
``BENCH_scaling.json``, a ``repro.bench_report/10`` grid document with
empty ``sites``, a grid-aggregated ``monitors`` section and the
``scaling`` section:

* ``reference`` -- the client-axis curves at the reference corner (max
  sites, max skew), keyed ``c64 / c256 / c1024``: the knee points the
  bench-regression gates read
  (``scaling.reference.commits_per_sec.c1024``);
* ``cells`` -- one row per grid cell: the
  :meth:`~repro.workloads.ScalingResult.stats` payload, the
  ``p999_ms`` tail, per-mix sketch quantiles and SLO burn-rate verdicts
  (docs/OBSERVABILITY.md, "SLOs and burn rates") and the
  abort-provenance fields.

Every number is virtual-time only, so the document is byte-reproducible
across hosts and worker counts.  The full-report variant -- the
reference column, its largest cell under the report observer set -- is
``python -m repro.analysis.report scaling``.
"""

from __future__ import annotations

import sys
from collections import Counter

from repro.analysis.cell import Cell, grid_main, run
from repro.obs.schema import SCALING_CURVES, report_header

__all__ = [
    "SCALING_SITES", "SCALING_CLIENTS", "SCALING_THETAS",
    "SCALING_RECORDS", "SCALING_THINK", "SCALING_TXNS_PER_CLIENT",
    "SCALING_RPC_TIMEOUT", "SCALING_MIX", "SCALING_SEED",
    "scaling_cells", "run_workload", "run_scaling_cell", "scaling_row",
    "scaling_section", "scaling_report", "main",
]

#: Default grid axes.  The reference corner (max sites, max skew)
#: carries the gated client-axis curves.
SCALING_SITES = (1, 3)
SCALING_CLIENTS = (64, 256, 1024)
SCALING_THETAS = (0.0, 0.9)

#: Per-cell workload shape (see module docstring for the why).
SCALING_RECORDS = 16384
SCALING_THINK = 0.1
SCALING_TXNS_PER_CLIENT = 2
SCALING_RPC_TIMEOUT = 30.0
SCALING_MIX = "banking"
SCALING_SEED = 0


def scaling_cells(sites=SCALING_SITES, clients=SCALING_CLIENTS,
                  thetas=SCALING_THETAS):
    """The cross-product cell list, in deterministic order: the scaling
    workload with strict monitors and abort provenance, no timeline."""
    return [
        Cell(sites=int(s), clients=int(c), theta=float(t), provenance=True,
             config={"commit_batching": True,
                     "rpc_timeout": SCALING_RPC_TIMEOUT})
        for s in sites
        for c in clients
        for t in thetas
    ]


def run_workload(cluster):
    """Run the scaling workload at ``cluster.cell``'s clients and skew;
    returns the cluster, its ScalingResult as ``cluster.result``."""
    from repro.workloads import ScalingDriver

    driver = ScalingDriver(
        cluster, record_count=SCALING_RECORDS, mix=SCALING_MIX, keys="zipf",
        theta=cluster.cell.theta, clients=cluster.cell.clients,
        txns_per_client=SCALING_TXNS_PER_CLIENT, arrival="closed",
        think_mean=SCALING_THINK, seed=SCALING_SEED)
    driver.setup()
    cluster.result = driver.run()
    return cluster


def run_scaling_cell(cell):
    """One grid cell's row; strict monitors make a protocol violation
    raise instead of producing numbers."""
    return scaling_row(run(cell))


def scaling_row(cluster):
    """The report row of a cluster the scaling workload ran on."""
    cell, result = cluster.cell, cluster.result
    out = {"sites": cell.sites, "clients": cell.clients, "theta": cell.theta}
    out.update(result.stats())
    # Sketch-backed extreme tail: the driver's exact per-txn quantile
    # for the cell row, the per-mix sketches for the fleet view.
    out["p999_ms"] = result.latency_quantile(0.999) * 1000.0
    obs = cluster.obs
    mixes = {}
    for mix in obs.metrics.mixes():
        sketch = obs.metrics.merged("client.latency", mix=mix)
        if sketch is None or not sketch.count:
            continue
        mixes[mix] = {
            "count": sketch.count,
            "p50_ms": sketch.percentile(50) * 1000.0,
            "p95_ms": sketch.percentile(95) * 1000.0,
            "p99_ms": sketch.percentile(99) * 1000.0,
            "p999_ms": sketch.percentile(99.9) * 1000.0,
        }
    out["mixes"] = mixes
    # Per-mix SLO verdicts: did this cell hold its error budgets?
    out["slo"] = {mix: {"ok": entry["ok"], "worst_burn": entry["worst_burn"]}
                  for mix, entry in obs.slo.section()["mixes"].items()}
    # v9 abort provenance: how much of the cell's work was wasted, what
    # killed it, and where the contention lived (docs/OBSERVABILITY.md).
    if obs.provenance is not None:
        from repro.obs.critpath import BlameTable, hotness_view
        from repro.obs.waste import waste_view

        table = BlameTable(obs)
        ledger = waste_view(table)
        out["goodput_fraction"] = ledger["goodput_fraction"]
        out["waste"] = {"wasted_ns": ledger["wasted_ns"],
                        "categories": ledger["categories"]}
        out["dominant_abort_cause"] = obs.provenance.dominant_cause()
        out["hot_ranges"] = [{"file": row["file"],
                              "range_start": row["range_start"]}
                             for row in hotness_view(table)["top"][:3]]
    out["monitors"] = obs.monitors.section()
    out["monitors_total_violations"] = out["monitors"]["total_violations"]
    return out


#: Per-cell stats keys that enter the report.
_CELL_KEYS = (
    "sites", "clients", "theta",
    "committed", "aborted", "retries", "abort_rate",
    "virtual_seconds", "commits_per_sec",
    "p50_ms", "p95_ms", "p99_ms", "p999_ms",
    "mixes", "slo",
    "goodput_fraction", "dominant_abort_cause", "hot_ranges", "waste",
    "monitors_total_violations",
)


def scaling_section(results, sites=SCALING_SITES, clients=SCALING_CLIENTS,
                    thetas=SCALING_THETAS) -> dict:
    """Fold per-cell results into the report's ``scaling`` section."""
    ref_sites = max(sites)
    ref_theta = max(thetas)
    reference = {"sites": ref_sites, "theta": ref_theta, "slo": {}}
    for key in SCALING_CURVES:
        reference[key] = {}
    for row in results:
        if row["sites"] == ref_sites and row["theta"] == ref_theta:
            label = "c%d" % row["clients"]
            for key in SCALING_CURVES:
                if key in row:
                    reference[key][label] = row[key]
            # Knee-vs-SLO: alongside the knee curves, whether this
            # client count still held every declared error budget.
            verdicts = row.get("slo") or {}
            reference["slo"][label] = {
                "ok": all(v["ok"] for v in verdicts.values()),
                "worst_burn": max((v["worst_burn"] for v in verdicts.values()),
                                  default=0.0),
            }
    return {
        "grid": {
            "sites": [int(s) for s in sites],
            "clients": [int(c) for c in clients],
            "theta": [float(t) for t in thetas],
        },
        "workload": {
            "mix": SCALING_MIX,
            "records": SCALING_RECORDS,
            "think_mean": SCALING_THINK,
            "txns_per_client": SCALING_TXNS_PER_CLIENT,
            "arrival": "closed",
            "seed": SCALING_SEED,
        },
        "reference": reference,
        "cells": [{key: row[key] for key in _CELL_KEYS if key in row}
                  for row in results],
    }


def scaling_report(section, rows=()) -> dict:
    """Wrap a ``scaling`` section as a standalone
    ``repro.bench_report/10`` grid document (empty ``sites``: the
    grid runs its clusters cell-locally, and their latency breakdowns
    are deliberately not merged across unequal grid corners).  Given
    the grid's ``rows``, it carries their strict monitors' sums as the
    ``monitors`` section the CI gate pins."""
    doc = report_header(
        "scaling", sum(c["virtual_seconds"] for c in section["cells"]))
    doc["scaling"] = section
    sections = [row["monitors"] for row in rows]
    if sections:
        counts = Counter()
        for section in sections:
            counts.update(section["violation_counts"])
        doc["monitors"] = {
            "strict": True, "violation_counts": dict(counts), "violations": [],
            "events": sum(s["events"] for s in sections),
            "total_violations": sum(s["total_violations"] for s in sections),
            "checks": sorted({c for s in sections for c in s["checks"]})}
    return doc


def main(argv=None):
    return grid_main(
        argv, "repro.analysis.scaling",
        "Sweep the sites x clients x skew scaling grid and write the "
        "repro.bench_report/10 scaling document.",
        {"sites": (int, SCALING_SITES, "site-count"),
         "clients": (int, SCALING_CLIENTS, "client-count"),
         "thetas": (float, SCALING_THETAS, "Zipf skew")},
        scaling_cells, run_scaling_cell,
        lambda rows, **axes: scaling_report(scaling_section(rows, **axes),
                                            rows))


if __name__ == "__main__":
    sys.exit(main())
