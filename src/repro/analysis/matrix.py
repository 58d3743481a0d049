"""Scenario-matrix runner: ``python -m repro.analysis.matrix``.

Runs the scenario x lock_cache x commit_batching grid, one
:class:`~repro.analysis.cell.Cell` per point, and merges the per-cell
``repro.bench_report/10`` documents into one matrix report:

* every cell's ``sites``, ``sketches`` and ``counters`` sections fold
  into one :class:`~repro.obs.metrics.MetricsHub` through
  :meth:`~repro.obs.metrics.MetricsHub.load`: sketches merge exactly
  (bucket counts add), so the merged percentiles equal those of a
  single hub that saw every sample, and counters sum;
* span totals sum;
* the ``matrix`` section records the grid and one row per cell
  (scenario outcome, monitor verdict).

The document carries no host-time number, so it is *identical* for any
worker count (tests/analysis/test_matrix.py pins the identity; CI
``cmp``s a parallel run against a sequential one).  ``python -m
repro.analysis.matrix --workers 2`` writes ``BENCH_matrix.json`` and
prints one row per cell.
"""

from __future__ import annotations

import sys
from dataclasses import replace

from repro.analysis.cell import grid_main, run
from repro.obs import build_report, validate_report
from repro.obs.metrics import MetricsHub
from repro.obs.schema import SPAN_FIELDS, report_header

__all__ = ["DEFAULT_SCENARIOS", "grid_cells", "run_cell", "merge_reports",
           "main"]

#: Scenarios a full-grid run covers.  ``throughput`` is excluded from
#: the default grid (it runs its own batching on/off cluster pair and
#: would double-count the axis this matrix already sweeps); select it
#: explicitly with ``--scenarios throughput``.
DEFAULT_SCENARIOS = ("commit", "wal", "lockcache")

_FLAGS = (False, True)


def grid_cells(scenarios=DEFAULT_SCENARIOS, lock_cache=_FLAGS,
               commit_batching=_FLAGS):
    """The cross-product cell list, in deterministic order: each
    scenario's report cell with the feature axes overriding its config
    and strict monitors only (no timeline, no provenance)."""
    from repro.analysis.report import scenario_cell

    return [
        replace(base, tick=0.0, provenance=False,
                config=dict(base.config, lock_cache=bool(lc),
                            commit_batching=bool(cb)))
        for base in map(scenario_cell, scenarios)
        for lc in lock_cache
        for cb in commit_batching
    ]


def run_cell(cell):
    """One grid cell's matrix row, its validated report as "report"."""
    report = build_report(run(cell), scenario=cell.scenario)
    validate_report(report)
    config = dict(cell.config)
    return {"scenario": cell.scenario,
            "lock_cache": config["lock_cache"],
            "commit_batching": config["commit_batching"],
            "virtual_time": report["virtual_time"],
            "monitors_total_violations":
                report["monitors"]["total_violations"],
            "spans_recorded": report["spans"]["recorded"],
            "report": report}


def merge_reports(results, scenarios=DEFAULT_SCENARIOS) -> dict:
    """Fold per-cell reports into one ``repro.bench_report/10`` matrix
    document (see the module docstring for the merge rules)."""
    hub = MetricsHub()
    span_totals = dict.fromkeys(SPAN_FIELDS, 0)
    virtual_time = 0.0
    cells = []

    for result in results:
        report = result["report"]
        virtual_time += report["virtual_time"]
        hub.load(report)
        for key in span_totals:
            span_totals[key] += report["spans"].get(key, 0)
        cells.append({key: value for key, value in result.items()
                      if key != "report"})

    doc = report_header("matrix", virtual_time, hub.by_site(),
                        hub.counters_by_site(), span_totals)
    doc["matrix"] = {
        "grid": {
            "scenario": list(scenarios),
            "lock_cache": list(_FLAGS),
            "commit_batching": list(_FLAGS),
        },
        "cells": cells,
    }
    merged_sketches = hub.sketches_by_site()
    if merged_sketches:
        doc["sketches"] = merged_sketches
    return doc


def main(argv=None):
    return grid_main(
        argv, "repro.analysis.matrix",
        "Run the scenario x lock_cache x commit_batching grid across "
        "worker processes and merge the per-cell reports into one "
        "matrix report.",
        {"scenarios": (str, DEFAULT_SCENARIOS, "scenario")},
        grid_cells, run_cell, merge_reports)


if __name__ == "__main__":
    sys.exit(main())
