"""Scaling sweep: ``python -m repro.analysis.scaling``.

Sweeps the sites x clients x skew grid with the
:class:`~repro.workloads.ScalingDriver` (ROADMAP item 1: thousands of
Zipf-skewed closed-loop clients, batched arrival scheduling), one
simulated cluster per cell, protocol monitors strict in every cell.
Emits the ``scaling`` report section:

* ``reference`` -- throughput / abort-rate / p99 curves over the
  client axis at the reference corner (max sites, max skew), keyed
  ``c64 / c256 / c1024``.  These are the knee-point numbers the
  bench-regression gates pin (``delta.scaling.commits_per_sec.c1024``);
* ``cells`` -- one row per grid cell with the full
  :meth:`~repro.workloads.ScalingResult.stats` payload.

Every number is **virtual-time only** (commits per simulated second,
latency quantiles in simulated milliseconds), so the document is byte-
reproducible across hosts and worker counts.  What a cell costs in host
seconds is ``benchmarks/e2e``'s business; the CLI prints only the whole
sweep's elapsed time as a progress line.

The cell configuration matches what a saturated-but-live cluster
needs: ``commit_batching`` on (without it, commits serialize on the
per-site log and lock convoys collapse the run) and a long
``rpc_timeout`` (a slow-but-alive site must not fail prepares
spuriously at high concurrency).

Run it::

    PYTHONPATH=src python -m repro.analysis.scaling --workers 4

writes ``BENCH_scaling.json`` (a ``repro.bench_report/10`` grid
document -- empty ``sites``, the ``scaling`` section carries the
payload plus a grid-aggregated ``monitors`` section) and prints one
row per cell.  Cells also carry the sketch-backed ``p999_ms``
tail, per-mix quantiles from the mergeable
:class:`~repro.obs.sketch.QuantileSketch`\\ es, and per-mix SLO
burn-rate verdicts (docs/OBSERVABILITY.md, "SLOs and burn rates").  The full-report variant --
reference cell on an instrumented cluster, latency breakdown, causal
trace -- is ``python -m repro.analysis.report --scenario scaling``.
"""

from __future__ import annotations

import argparse
import functools
import multiprocessing
import os
import sys
import time

from repro.obs import validate_report, write_json

__all__ = [
    "SCALING_SITES", "SCALING_CLIENTS", "SCALING_THETAS",
    "SCALING_RECORDS", "SCALING_THINK", "SCALING_TXNS_PER_CLIENT",
    "SCALING_RPC_TIMEOUT", "SCALING_MIX", "SCALING_SEED",
    "scaling_cells", "run_scaling_cell", "run_scaling_grid",
    "monitors_aggregate", "scaling_section", "scaling_report",
    "render_scaling_table", "main",
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
    """The cross-product cell list, in deterministic order."""
    return [
        {"sites": int(s), "clients": int(c), "theta": float(t)}
        for s in sites
        for c in clients
        for t in thetas
    ]


def _cell_config():
    from repro.config import SystemConfig

    return SystemConfig(rpc_timeout=SCALING_RPC_TIMEOUT,
                        commit_batching=True)


def run_scaling_cell(cell, timeline_tick=0.0, cluster=None):
    """Run one grid cell; returns the cell dict plus its stats.

    Module-level with picklable arguments so a multiprocessing pool can
    fan cells across cores.  Monitors run strict: a protocol violation
    in any cell raises instead of producing numbers.  Pass ``cluster``
    to run the cell's workload on an existing instrumented cluster (the
    ``--scenario scaling`` reference cell) instead of building one.
    """
    from repro import Cluster
    from repro.workloads import ScalingDriver

    if cluster is None:
        site_ids = tuple(range(1, cell["sites"] + 1))
        cluster = Cluster(site_ids=site_ids, config=_cell_config())
        cluster.enable_observability(monitors=True, strict=True,
                                     timeline_tick=timeline_tick,
                                     provenance=True)
    driver = ScalingDriver(
        cluster,
        record_count=SCALING_RECORDS,
        mix=SCALING_MIX,
        keys="zipf",
        theta=cell["theta"],
        clients=cell["clients"],
        txns_per_client=SCALING_TXNS_PER_CLIENT,
        arrival="closed",
        think_mean=SCALING_THINK,
        seed=SCALING_SEED,
    )
    driver.setup()
    result = driver.run()
    out = dict(cell)
    out.update(result.stats())
    # Sketch-backed extreme tail: the driver's exact per-txn quantile
    # for the cell row, the per-mix sketches for the fleet view.
    out["p999_ms"] = result.latency_quantile(0.999) * 1000.0
    obs = cluster.obs
    mixes = {}
    if obs is not None:
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
    verdicts = {}
    if obs is not None and obs.slo is not None and obs.slo.mixes():
        for mix, entry in obs.slo.section()["mixes"].items():
            verdicts[mix] = {"ok": entry["ok"],
                             "worst_burn": entry["worst_burn"]}
    out["slo"] = verdicts
    # v9 abort provenance: how much of the cell's work was wasted, what
    # killed it, and where the contention lived (docs/OBSERVABILITY.md).
    if obs is not None and obs.provenance is not None:
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
    monitors = getattr(cluster.obs, "monitors", None)
    out["monitors_total_violations"] = (
        monitors.total_violations if monitors is not None else 0
    )
    if monitors is not None:
        msec = monitors.section()
        out["monitors_events"] = msec["events"]
        out["monitors_checks"] = msec["checks"]
        out["monitors_violation_counts"] = msec["violation_counts"]
    return out


def run_scaling_grid(cells, workers=1):
    """Run every cell, across ``workers`` spawn processes when > 1.

    Results come back in cell order regardless of which worker finished
    first.  Falls back to in-process sequential when this process is
    itself a pool worker (daemonic processes cannot nest pools)."""
    if workers > 1 and multiprocessing.current_process().daemon:
        workers = 1
    if workers <= 1 or len(cells) <= 1:
        return [run_scaling_cell(cell) for cell in cells]
    worker = functools.partial(run_scaling_cell)
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(processes=min(workers, len(cells))) as pool:
        return pool.map(worker, cells, chunksize=1)


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

#: Curve metrics exported at the reference corner, keyed ``c<N>``.
_CURVE_KEYS = ("commits_per_sec", "abort_rate", "p99_ms", "p999_ms",
               "goodput_fraction")


def monitors_aggregate(results) -> dict:
    """A ``monitors`` report section aggregated across grid cells (each
    cell ran its own strict MonitorHub in its own cluster -- often its
    own process -- so the standalone scaling document carries the sums,
    addressable by the CI gate as ``monitors.total_violations``)."""
    aggregate = {
        "strict": True,
        "events": 0,
        "total_violations": 0,
        "checks": [],
        "violation_counts": {},
        "violations": [],
    }
    checks = set()
    for row in results:
        aggregate["events"] += row.get("monitors_events", 0)
        aggregate["total_violations"] += row.get(
            "monitors_total_violations", 0)
        checks.update(row.get("monitors_checks", ()))
        for name, count in sorted(
            (row.get("monitors_violation_counts") or {}).items()
        ):
            aggregate["violation_counts"][name] = (
                aggregate["violation_counts"].get(name, 0) + count
            )
    aggregate["checks"] = sorted(checks)
    return aggregate


def scaling_section(results, sites=SCALING_SITES, clients=SCALING_CLIENTS,
                    thetas=SCALING_THETAS) -> dict:
    """Fold per-cell results into the report's ``scaling`` section."""
    ref_sites = max(sites)
    ref_theta = max(thetas)
    reference = {"sites": ref_sites, "theta": ref_theta, "slo": {}}
    for key in _CURVE_KEYS:
        reference[key] = {}
    for row in results:
        if row["sites"] == ref_sites and row["theta"] == ref_theta:
            label = "c%d" % row["clients"]
            for key in _CURVE_KEYS:
                if key in row:
                    reference[key][label] = row[key]
            # Knee-vs-SLO: alongside the knee curves, whether this
            # client count still held every declared error budget.
            verdicts = row.get("slo") or {}
            reference["slo"][label] = {
                "ok": all(v["ok"] for v in verdicts.values())
                if verdicts else True,
                "worst_burn": max(
                    (v["worst_burn"] for v in verdicts.values()),
                    default=0.0,
                ),
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


def scaling_report(section, monitors=None) -> dict:
    """Wrap a ``scaling`` section as a standalone
    ``repro.bench_report/10`` grid document (empty ``sites``: the
    grid runs its clusters cell-locally, and their latency breakdowns
    are deliberately not merged across unequal grid corners).
    ``monitors`` (see :func:`monitors_aggregate`) adds the grid-wide
    monitors section the CI gate pins."""
    from repro import __version__
    from repro.obs.schema import SCHEMA_ID

    doc = {
        "schema": SCHEMA_ID,
        "generator": "repro %s" % __version__,
        "scenario": "scaling",
        "virtual_time": sum(c["virtual_seconds"] for c in section["cells"]),
        "sites": {},
        "counters": {},
        "spans": {"recorded": 0, "dropped": 0, "traces": 0, "instants": 0},
        "scaling": section,
    }
    if monitors is not None:
        doc["monitors"] = monitors
    return doc


def render_scaling_table(section) -> str:
    """One row per grid cell (virtual-time numbers)."""
    header = "%5s %7s %5s %9s %7s %7s %9s %9s %8s %8s %8s %-12s %9s" % (
        "sites", "clients", "theta", "committed", "aborts", "abort%",
        "virt-sec", "cmt/sec", "p99ms", "p999ms", "goodput", "cause",
        "slo",
    )
    lines = [header, "-" * len(header)]
    for cell in section["cells"]:
        verdicts = cell.get("slo") or {}
        if verdicts:
            worst = max(v["worst_burn"] for v in verdicts.values())
            slo = ("ok" if all(v["ok"] for v in verdicts.values())
                   else "burn=%.1f" % worst)
        else:
            slo = "--"
        goodput = cell.get("goodput_fraction")
        goodput = "--" if goodput is None else "%6.1f%%" % (100.0 * goodput)
        lines.append(
            "%5d %7d %5.2f %9d %7d %6.1f%% %9.2f %9.2f %8.2f %8.2f %8s "
            "%-12s %9s"
            % (
                cell["sites"], cell["clients"], cell["theta"],
                cell["committed"], cell["aborted"],
                100.0 * cell["abort_rate"],
                cell["virtual_seconds"], cell["commits_per_sec"],
                cell["p99_ms"], cell.get("p999_ms", 0.0), goodput,
                cell.get("dominant_abort_cause") or "--", slo,
            ))
    # Per-mix sketch tails: the fleet view of every mix that recorded
    # sketch samples anywhere in the grid (one line per cell x mix).
    mix_lines = []
    for cell in section["cells"]:
        for mix, q in sorted((cell.get("mixes") or {}).items()):
            mix_lines.append(
                "  s%d c%d t%.2f %-10s p50=%.2fms p95=%.2fms "
                "p99=%.2fms p999=%.2fms (n=%d)" % (
                    cell["sites"], cell["clients"], cell["theta"], mix,
                    q["p50_ms"], q["p95_ms"], q["p99_ms"], q["p999_ms"],
                    q["count"],
                ))
    if mix_lines:
        lines.append("")
        lines.append("per-mix sketch tails (client.latency):")
        lines.extend(mix_lines)
    ref = section["reference"]
    lines.append("")
    lines.append("reference (sites=%d theta=%.2f): %s" % (
        ref["sites"], ref["theta"],
        "  ".join(
            "%s[%s]=%.2f" % (key, label, ref[key][label])
            for key in _CURVE_KEYS
            if isinstance(ref.get(key), dict)
            for label in sorted(ref[key], key=lambda s: int(s[1:]))
        ),
    ))
    # The saturated corner cell's abort story: what killed its aborted
    # attempts and where the contention lived (v9 provenance).
    big = max(
        (c for c in section["cells"]
         if c["sites"] == ref["sites"] and c["theta"] == ref["theta"]),
        key=lambda c: c["clients"], default=None)
    if big is not None and (big.get("dominant_abort_cause")
                            or big.get("hot_ranges")):
        ranges = ", ".join(
            "%s:%d" % (r["file"], r["range_start"])
            for r in big.get("hot_ranges") or ()) or "--"
        lines.append("c%d aborts: dominant cause %s; hot ranges %s" % (
            big["clients"], big.get("dominant_abort_cause") or "none",
            ranges))
    ref_slo = ref.get("slo") or {}
    if ref_slo:
        lines.append("knee vs SLO: %s" % "  ".join(
            "%s=%s" % (label,
                       "ok" if ref_slo[label]["ok"]
                       else "BREACH(burn=%.1f)" % ref_slo[label]["worst_burn"])
            for label in sorted(ref_slo, key=lambda s: int(s[1:]))
        ))
    return "\n".join(lines)


def _axis(text, cast):
    return tuple(cast(v) for v in text.split(",") if v)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.scaling",
        description="Sweep the sites x clients x skew scaling grid and "
                    "write the repro.bench_report/10 scaling document.",
    )
    parser.add_argument("--workers", type=int, default=0,
                        help="worker processes (default: one per core, "
                             "capped at the cell count; 1 = in-process "
                             "sequential)")
    parser.add_argument("--sites", default=",".join(map(str, SCALING_SITES)),
                        help="comma-separated site-count axis "
                             "(default: %(default)s)")
    parser.add_argument("--clients",
                        default=",".join(map(str, SCALING_CLIENTS)),
                        help="comma-separated client-count axis "
                             "(default: %(default)s)")
    parser.add_argument("--thetas", default=",".join(map(str, SCALING_THETAS)),
                        help="comma-separated Zipf skew axis "
                             "(default: %(default)s)")
    parser.add_argument("--out", default="BENCH_scaling.json",
                        help="report path (default: %(default)s)")
    args = parser.parse_args(argv)

    sites = _axis(args.sites, int)
    clients = _axis(args.clients, int)
    thetas = _axis(args.thetas, float)
    cells = scaling_cells(sites=sites, clients=clients, thetas=thetas)
    workers = args.workers or min(os.cpu_count() or 1, len(cells))

    start = time.perf_counter()
    results = run_scaling_grid(cells, workers=workers)
    elapsed = time.perf_counter() - start

    section = scaling_section(results, sites=sites, clients=clients,
                              thetas=thetas)
    doc = scaling_report(section, monitors=monitors_aggregate(results))
    validate_report(doc)

    print("== scaling: %d cells x %d worker(s) in %.2fs ==" % (
        len(cells), workers, elapsed,
    ))
    print(render_scaling_table(section))
    violations = sum(c["monitors_total_violations"] for c in section["cells"])
    print("\nmonitors: %s" % (
        "clean in every cell" if violations == 0
        else "%d violation(s)" % violations,
    ))
    write_json(args.out, doc)
    print("\nwrote %s" % args.out)
    return 0 if violations == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
