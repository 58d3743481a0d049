"""Scenario-matrix runner: ``python -m repro.analysis.matrix``.

Fans the scenario x lock_cache x commit_batching grid across worker
processes (one simulated cluster per cell, protocol monitors strict in
every cell), then merges the per-cell ``repro.bench_report/10``
documents into one matrix report:

* every cell's ``sites``, ``sketches`` and ``counters`` sections fold
  into one :class:`~repro.obs.metrics.MetricsHub` through
  :meth:`~repro.obs.metrics.MetricsHub.load`: sketches merge exactly
  (bucket counts add), so the merged percentiles equal those of a
  single hub that saw every sample, and counters sum;
* span totals sum;
* the ``matrix`` section records the grid and one row per cell
  (scenario outcome, monitor verdict).

The simulation inside each cell is deterministic and the document
carries no host-time number, so the merged report is *identical*
regardless of worker count (tests/analysis/test_matrix.py pins the
identity; CI ``cmp``s a parallel run against a sequential one).

Run it::

    PYTHONPATH=src python -m repro.analysis.matrix --workers 2

writes ``BENCH_matrix.json`` and prints one row per cell.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import sys
import time

from repro.obs import build_report, validate_report, write_json
from repro.obs.metrics import MetricsHub

__all__ = ["DEFAULT_SCENARIOS", "grid_cells", "run_cell", "run_grid",
           "merge_reports", "render_matrix_table", "main"]

#: Scenarios a full-grid run covers.  ``throughput`` is excluded from
#: the default grid (it runs its own batching on/off cluster pair and
#: would double-count the axis this matrix already sweeps); select it
#: explicitly with ``--scenarios throughput``.
DEFAULT_SCENARIOS = ("commit", "wal", "lockcache")

_FLAGS = (False, True)


def grid_cells(scenarios=DEFAULT_SCENARIOS, lock_cache=_FLAGS,
               commit_batching=_FLAGS):
    """The cross-product cell list, in deterministic order."""
    return [
        {"scenario": s, "lock_cache": bool(lc), "commit_batching": bool(cb)}
        for s in scenarios
        for lc in lock_cache
        for cb in commit_batching
    ]


def run_cell(cell):
    """Run one grid cell in the current process.

    Module-level with picklable arguments so a multiprocessing pool can
    fan cells across cores; returns the cell dict plus its validated
    per-cell report under ``"report"``.
    """
    from repro import Cluster
    from repro.analysis.report import SCENARIOS, SCENARIO_CONFIG
    from repro.config import SystemConfig

    overrides = dict(SCENARIO_CONFIG.get(cell["scenario"], {}))
    # The grid axes override the scenario's own defaults: every
    # scenario runs in all four feature combinations.
    overrides["lock_cache"] = cell["lock_cache"]
    overrides["commit_batching"] = cell["commit_batching"]
    cluster = Cluster(site_ids=(1, 2, 3), config=SystemConfig(**overrides))
    cluster.enable_observability(monitors=True, strict=True, timeline_tick=0.0)
    SCENARIOS[cell["scenario"]](cluster)
    report = build_report(cluster, scenario=cell["scenario"])
    validate_report(report)
    out = dict(cell)
    out["report"] = report
    return out


def run_grid(cells, workers=1):
    """Run every cell, across ``workers`` processes when > 1.

    Results come back in cell order regardless of which worker finished
    first, so downstream merging is order-stable."""
    if workers <= 1 or len(cells) <= 1:
        return [run_cell(cell) for cell in cells]
    # spawn, not fork: each worker imports the package fresh, so cells
    # cannot observe interpreter state leaked from the parent run.
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(processes=min(workers, len(cells))) as pool:
        return pool.map(run_cell, cells, chunksize=1)


def merge_reports(results, scenarios=DEFAULT_SCENARIOS) -> dict:
    """Fold per-cell reports into one ``repro.bench_report/10`` matrix
    document (see the module docstring for the merge rules)."""
    from repro import __version__
    from repro.obs.schema import SCHEMA_ID

    hub = MetricsHub()
    span_totals = {"recorded": 0, "dropped": 0, "traces": 0, "instants": 0}
    virtual_time = 0.0
    cells = []

    for result in results:
        report = result["report"]
        virtual_time += report["virtual_time"]
        hub.load(report)
        for key in span_totals:
            span_totals[key] += report["spans"].get(key, 0)
        monitors = report.get("monitors") or {}
        cells.append({
            "scenario": result["scenario"],
            "lock_cache": result["lock_cache"],
            "commit_batching": result["commit_batching"],
            "virtual_time": report["virtual_time"],
            "monitors_total_violations": monitors.get("total_violations", 0),
            "spans_recorded": report["spans"]["recorded"],
        })

    doc = {
        "schema": SCHEMA_ID,
        "generator": "repro %s" % __version__,
        "scenario": "matrix",
        "virtual_time": virtual_time,
        "sites": hub.by_site(),
        "counters": hub.counters_by_site(),
        "spans": span_totals,
        "matrix": {
            "grid": {
                "scenario": list(scenarios),
                "lock_cache": list(_FLAGS),
                "commit_batching": list(_FLAGS),
            },
            "cells": cells,
        },
    }
    merged_sketches = hub.sketches_by_site()
    if merged_sketches:
        doc["sketches"] = merged_sketches
    return doc


def render_matrix_table(section) -> str:
    """One row per grid cell: features, scenario outcome."""
    header = "%-10s %5s %5s %12s %8s %6s" % (
        "scenario", "cache", "batch", "virtualtime", "spans", "viol",
    )
    lines = [header, "-" * len(header)]
    for cell in section["cells"]:
        lines.append("%-10s %5s %5s %12.4f %8d %6d" % (
            cell["scenario"],
            "on" if cell["lock_cache"] else "off",
            "on" if cell["commit_batching"] else "off",
            cell["virtual_time"],
            cell["spans_recorded"],
            cell["monitors_total_violations"],
        ))
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.matrix",
        description="Run the scenario x lock_cache x commit_batching "
                    "grid across worker processes and merge the "
                    "per-cell reports into one matrix report.",
    )
    parser.add_argument("--workers", type=int, default=0,
                        help="worker processes (default: one per core, "
                             "capped at the cell count; 1 = in-process "
                             "sequential)")
    parser.add_argument("--scenarios", default=",".join(DEFAULT_SCENARIOS),
                        help="comma-separated scenario axis "
                             "(default: %(default)s)")
    parser.add_argument("--out", default="BENCH_matrix.json",
                        help="merged report path (default: %(default)s)")
    args = parser.parse_args(argv)

    scenarios = tuple(s for s in args.scenarios.split(",") if s)
    from repro.analysis.report import SCENARIOS

    unknown = [s for s in scenarios if s not in SCENARIOS]
    if unknown:
        parser.error("unknown scenario(s): %s (have: %s)"
                     % (", ".join(unknown), ", ".join(sorted(SCENARIOS))))
    cells = grid_cells(scenarios=scenarios)
    workers = args.workers or min(os.cpu_count() or 1, len(cells))

    start = time.perf_counter()
    results = run_grid(cells, workers=workers)
    elapsed = time.perf_counter() - start

    doc = merge_reports(results, scenarios=scenarios)
    validate_report(doc)

    print("== matrix: %d cells x %d worker(s) in %.2fs ==" % (
        len(cells), workers, elapsed,
    ))
    print(render_matrix_table(doc["matrix"]))
    violations = sum(c["monitors_total_violations"]
                     for c in doc["matrix"]["cells"])
    print("\nmonitors: %s" % (
        "clean in every cell" if violations == 0
        else "%d violation(s) -- see per-cell reports" % violations,
    ))
    write_json(args.out, doc)
    print("\nwrote %s" % args.out)
    return 0 if violations == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
