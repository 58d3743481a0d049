"""Perf-report pipeline: ``python -m repro.analysis.report [scenario]``.

Runs a named scenario's cell (:func:`scenario_cell`: three sites under
strict protocol monitors, a timeline and abort provenance), prints a
per-site latency-breakdown table (count / p50 / p95 / p99 / max per
metric), and writes two artifacts:

* ``BENCH_report.json`` -- the stable ``repro.bench_report/10`` metrics
  document (validated against :mod:`repro.obs.schema` before writing),
  including the four views of the run's blame table
  (:mod:`repro.obs.critpath`) -- ``critpath`` (per-transaction blame
  decomposition), ``contention`` (resource / waits-for attribution),
  ``waste`` (wasted-work ledger: goodput vs raw throughput) and
  ``hotness`` (windowed EWMA contention trend) -- and the ``timeline``
  (per-site gauge/rate series), ``monitors`` (runtime protocol
  verification), ``sketches`` (per-mix quantile sketches), ``slo``
  (per-mix error-budget burn rates) and ``aborts`` (abort provenance:
  cause taxonomy, retry chains, storm peaks) sections; the
  ``throughput`` scenario writes
  ``BENCH_throughput.json`` with the commit-batching on/off comparison
  (docs/COMMIT_BATCHING.md);
* ``BENCH_trace.json`` -- a Chrome trace-event file of every causal
  span plus counter ('C') tracks for the timeline gauges; load it at
  https://ui.perfetto.dev to see the distributed commit as one
  flow-linked tree across coordinator and participants.

The simulator is deterministic and neither the report nor the printed
tables contain a host-time number, so rerunning a scenario reproduces
both files byte for byte (tests/obs/test_report_cli.py compares them
with the committed ``BENCH_*.json``).  What the run costs in host
seconds is measured from outside: ``benchmarks/e2e/bench.py run --trace
1 --crosscheck`` for the per-layer ledger, ``python -m cProfile -m
repro.analysis.report ...`` for a function profile of one scenario.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from repro import drive
from repro.analysis import scaling as sc
from repro.analysis.cell import Cell, build, run
from repro.obs import build_report, to_chrome_trace, validate_report, write_json
from repro.obs.schema import SECTIONS

__all__ = ["SCENARIOS", "SCENARIO_CONFIG", "THROUGHPUT_TXNS_PER_SITE",
           "THROUGHPUT_RPC_TIMEOUT", "THROUGHPUT_BASELINE", "scenario_cell",
           "run_scenario", "attach_analysis_sections", "throughput_stats",
           "main"]


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------

def _writer(sysc, path_a, path_b, delay, offset):
    """One distributed transaction: contended locks on ``path_a`` (all
    writers overlap there), then an update of ``path_b`` at another
    site, so the 2PC involves at least two participant sites."""
    yield from sysc.sleep(delay)
    yield from sysc.begin_trans()
    fda = yield from sysc.open(path_a, write=True)
    yield from sysc.seek(fda, offset)
    yield from sysc.lock(fda, 48)
    yield from sysc.write(fda, b"x" * 48)
    fdb = yield from sysc.open(path_b, write=True)
    yield from sysc.seek(fdb, offset)
    yield from sysc.write(fdb, b"y" * 32)
    yield from sysc.end_trans()
    return "committed"


def scenario_commit(cluster):
    """Six staggered writers from three sites run distributed
    transactions over two files stored at different sites; their lock
    ranges on the first file overlap, so the run exercises lock waits,
    remote RPCs, disk queues, and full 2PC commits."""
    drive(cluster.engine, cluster.create_file("/db/a", site_id=1))
    drive(cluster.engine, cluster.populate("/db/a", b"." * 256))
    drive(cluster.engine, cluster.create_file("/db/b", site_id=3))
    drive(cluster.engine, cluster.populate("/db/b", b"." * 256))
    for i in range(6):
        cluster.spawn(
            _writer, "/db/a", "/db/b", 0.01 * i, (i % 2) * 24,
            site_id=(1, 2, 3)[i % 3], name="writer%d" % i,
        )
    cluster.run()


def scenario_wal(cluster):
    """The section 6 WAL (commit log) baseline: repeated small commits
    against one hot file, checkpointed periodically, alongside the
    distributed shadow-page workload for side-by-side comparison."""
    from repro.storage import WalFile

    scenario_commit(cluster)
    site = cluster.site(1)
    volume = next(iter(site.volumes.values()))
    engine = cluster.engine

    def wal_workload():
        ino = yield from volume.create_file()
        wal = WalFile(engine, cluster.cost, volume, ino)
        for round_no in range(8):
            owner = ("txn", 1000 + round_no)
            yield from wal.write(owner, 64 * round_no, b"r" * 64)
            yield from wal.commit(owner)
            if round_no % 4 == 3:
                yield from wal.checkpoint()

    drive(engine, wal_workload())


def _lease_worker(sysc, path, rounds, offset):
    """Sequential transactions re-locking the same remote range: the
    first lock pays the RPC and earns a lease, the rest are local."""
    for _ in range(rounds):
        yield from sysc.begin_trans()
        fd = yield from sysc.open(path, write=True)
        yield from sysc.seek(fd, offset)
        yield from sysc.lock(fd, 32)
        yield from sysc.write(fd, b"c" * 32)
        yield from sysc.end_trans()
    return "committed"


def scenario_lockcache(cluster):
    """The lease-cache workload (docs/LOCK_CACHE.md): two using sites
    repeatedly lock files stored at site 1 -- the first lock per file
    earns a lease, later ones are cache hits -- then one cross-site
    writer forces an invalidation callback (recall).  Runs with
    ``lock_cache`` enabled (see SCENARIO_CONFIG)."""
    drive(cluster.engine, cluster.create_file("/db/h2", site_id=1))
    drive(cluster.engine, cluster.populate("/db/h2", b"." * 256))
    drive(cluster.engine, cluster.create_file("/db/h3", site_id=1))
    drive(cluster.engine, cluster.populate("/db/h3", b"." * 256))
    cluster.spawn(_lease_worker, "/db/h2", 6, 0, site_id=2, name="worker2")
    cluster.spawn(_lease_worker, "/db/h3", 6, 0, site_id=3, name="worker3")
    cluster.run()
    # Conflicting writer: site 3 locks site 2's leased file, forcing a
    # recall callback before the grant.
    cluster.spawn(_lease_worker, "/db/h2", 1, 64, site_id=3, name="recaller")
    cluster.run()


#: Concurrent banking transactions per site in the throughput scenario.
THROUGHPUT_TXNS_PER_SITE = 16

#: RPC timeout for *both* throughput runs.  At this concurrency the
#: unbatched baseline queues enough log I/O that prepare replies can
#: exceed the default 2 s timeout; aborted transactions would make the
#: on/off comparison unequal work, so both configs get the same long
#: timeout and differ only in ``commit_batching``.
THROUGHPUT_RPC_TIMEOUT = 30.0

#: The throughput scenario's batching-off baseline cluster, observed
#: by spans, metrics and SLOs only.
THROUGHPUT_BASELINE = Cell(scenario="throughput", monitors=False,
                           config={"commit_batching": False,
                                   "rpc_timeout": THROUGHPUT_RPC_TIMEOUT})


def _bank_txn(sysc, path_debit, path_credit, path_rates, delay, offset):
    """One banking transfer: debit a local account, credit a remote one
    (both exclusive-locked on a transaction-private range, so transfers
    run concurrently), and consult the shared rate table under a shared
    lock -- a participant that reads but never writes, exercising the
    READ_ONLY prepare vote when commit_batching is on."""
    yield from sysc.sleep(delay)
    yield from sysc.begin_trans()
    fda = yield from sysc.open(path_debit, write=True)
    yield from sysc.seek(fda, offset)
    yield from sysc.lock(fda, 16)
    yield from sysc.write(fda, b"d" * 16)
    fdb = yield from sysc.open(path_credit, write=True)
    yield from sysc.seek(fdb, offset)
    yield from sysc.lock(fdb, 16)
    yield from sysc.write(fdb, b"c" * 16)
    # Write-mode open is what permits locking (section 3.1 policy); the
    # transaction still only *reads* the rate table, so its storage
    # site has nothing to prepare.
    fdr = yield from sysc.open(path_rates, write=True)
    yield from sysc.lock(fdr, 8, mode="shared")
    yield from sysc.read(fdr, 8)
    yield from sysc.end_trans()
    # The commit's completion time: the makespan is the latest of these,
    # not engine.now (the engine also drains RPC-timeout events that
    # were scheduled past the last commit).
    return sysc.now


def _throughput_workload(cluster, txns_per_site=THROUGHPUT_TXNS_PER_SITE):
    """M concurrent banking transactions at each of three sites.  Each
    transaction writes its local account file and the next site's, so
    every commit is distributed; offsets are transaction-private so the
    commits overlap rather than queue on locks."""
    sites = (1, 2, 3)
    account_bytes = 16 * txns_per_site * len(sites)
    for s in sites:
        drive(cluster.engine, cluster.create_file("/bank/acct%d" % s, site_id=s))
        drive(cluster.engine,
              cluster.populate("/bank/acct%d" % s, b"." * account_bytes))
    drive(cluster.engine, cluster.create_file("/bank/rates", site_id=3))
    drive(cluster.engine, cluster.populate("/bank/rates", b"r" * 64))
    procs = []
    for idx, s in enumerate(sites):
        credit = sites[(idx + 1) % len(sites)]
        for i in range(txns_per_site):
            offset = (idx * txns_per_site + i) * 16
            procs.append(cluster.spawn(
                _bank_txn, "/bank/acct%d" % s, "/bank/acct%d" % credit,
                "/bank/rates", 0.002 * i, offset,
                site_id=s, name="bank%d-%d" % (s, i),
            ))
    cluster.run()
    return procs


def throughput_stats(cluster, procs) -> dict:
    """The throughput section's per-run numbers (docs/COMMIT_BATCHING.md)."""
    done_times = [p.exit_value for p in procs if p.exit_status == "done"]
    committed = len(done_times)
    now = max(done_times) if done_times else cluster.engine.now
    io = cluster.io_stats()
    log_physical = io.get("io.write.log", 0) + io.get("io.write.log_inode", 0)
    log_logical = (io.get("io.write.log.coalesced", 0)
                   + io.get("io.write.log_inode.coalesced", 0))
    net = cluster.network.stats
    phase2 = (net.get("net.msg.trans.commit")
              + net.get("net.msg.trans.commit_batch"))
    hub = cluster.obs.metrics
    latency = hub.merged("commit.latency")
    counters = hub.counters_by_site()

    def counter_total(name):
        return sum(values.get(name, 0) for values in counters.values())

    return {
        "txns": committed,
        "txns_per_site": THROUGHPUT_TXNS_PER_SITE,
        "virtual_seconds": now,
        "commits_per_sec": committed / now if now else 0.0,
        "commit_p50_ms": (latency.percentile(50) * 1e3) if latency else 0.0,
        "commit_p95_ms": (latency.percentile(95) * 1e3) if latency else 0.0,
        "log_ios_physical": log_physical,
        "log_ios_logical": log_logical,
        "log_ios_per_commit": log_physical / committed if committed else 0.0,
        "phase2_messages": phase2,
        "phase2_messages_per_commit": phase2 / committed if committed else 0.0,
        "group_batched": counter_total("commit.group.batched"),
        "ro_skips": counter_total("commit.ro_skips"),
        "phase2_coalesced": counter_total("commit.phase2.coalesced"),
    }


def scenario_throughput(cluster):
    """High-concurrency commit throughput, batching on vs off.

    The passed (instrumented) cluster runs the workload with
    ``commit_batching=True`` (see SCENARIO_CONFIG); an identically
    seeded THROUGHPUT_BASELINE runs it with the feature off.  Both
    sides' numbers land in the report's ``throughput`` section, which
    is what EXPERIMENTS.md EXT-GROUPCOMMIT pins."""
    procs = _throughput_workload(cluster)
    on_stats = throughput_stats(cluster, procs)

    baseline = build(THROUGHPUT_BASELINE)
    base_procs = _throughput_workload(baseline)
    off_stats = throughput_stats(baseline, base_procs)

    speedup = (on_stats["commits_per_sec"] / off_stats["commits_per_sec"]
               if off_stats["commits_per_sec"] else 0.0)
    cluster.report_sections = {
        "throughput": {
            "batching_on": on_stats,
            "batching_off": off_stats,
            "speedup": speedup,
        }
    }


def scenario_scaling(cluster):
    """The scaling reference column (docs/WORKLOADS.md): the client
    axis at the cluster's cell's corner.  The scaling grid's smaller
    client counts run first as grid cells; then the cell's own client
    count -- 1,024 by default -- runs on this instrumented cluster, so
    the report artifacts cover a saturated thousand-client run.  The
    full sweep is ``python -m repro.analysis.scaling``."""
    cell = cluster.cell
    clients = [c for c in sc.SCALING_CLIENTS if c < cell.clients]
    rows = [sc.run_scaling_cell(small) for small in sc.scaling_cells(
        sites=(cell.sites,), clients=clients, thetas=(cell.theta,))]
    rows.append(sc.scaling_row(sc.run_workload(cluster)))
    cluster.report_sections = {"scaling": sc.scaling_section(
        rows, sites=(cell.sites,), clients=clients + [cell.clients],
        thetas=(cell.theta,))}


SCENARIOS = {
    "commit": scenario_commit,
    "wal": scenario_wal,
    "lockcache": scenario_lockcache,
    "throughput": scenario_throughput,
    "scaling": scenario_scaling,
}

#: Per-scenario SystemConfig overrides (``scaling`` takes the grid's).
SCENARIO_CONFIG = {
    "lockcache": {"lock_cache": True},
    "throughput": {"commit_batching": True,
                   "rpc_timeout": THROUGHPUT_RPC_TIMEOUT},
}


# ----------------------------------------------------------------------
# runner and rendering
# ----------------------------------------------------------------------

def scenario_cell(name):
    """A report scenario's cell: three sites, its SCENARIO_CONFIG
    overrides and the report observer set -- strict monitors, a
    timeline ticking every 0.25 virtual seconds and abort provenance.
    ``scaling`` is the scaling grid's corner (max sites, clients, skew)."""
    if name == "scaling":
        corner = [(max(axis),) for axis in (
            sc.SCALING_SITES, sc.SCALING_CLIENTS, sc.SCALING_THETAS)]
        cell = replace(sc.scaling_cells(*corner)[0], scenario=name)
    elif name in SCENARIOS:
        cell = Cell(scenario=name, config=SCENARIO_CONFIG.get(name, ()))
    else:
        raise KeyError("unknown scenario %r (have: %s)"
                       % (name, ", ".join(sorted(SCENARIOS))))
    return replace(cell, tick=0.25, provenance=True)


def run_scenario(cell):
    """Run a report :class:`~repro.analysis.cell.Cell` (or a scenario
    name's :func:`scenario_cell`), attach the analysis sections and
    return the cluster.  Monitors are strict: a 2PC/locking/lease/WAL
    invariant violation raises rather than producing numbers."""
    if not isinstance(cell, Cell):
        cell = scenario_cell(cell)
    cluster = run(cell)
    attach_analysis_sections(cluster)
    return cluster


def attach_analysis_sections(cluster):
    """Build the run's blame table once and merge its views into
    ``cluster.report_sections``: ``critpath`` and ``contention``, plus,
    when abort provenance is attached, the ``aborts`` / ``waste`` /
    ``hotness`` sections (pure readers -- the run is over, so this
    cannot perturb anything).  Each site's max hotness score also goes
    into the timeline as a ``hotness.<site>`` gauge stepped at window
    boundaries.  Returns the sections dict."""
    from repro.obs.critpath import (BlameTable, contention_view,
                                    critpath_view, hotness_view)

    obs = cluster.obs
    table = BlameTable(obs)
    sections = getattr(cluster, "report_sections", None) or {}
    sections.setdefault("critpath", critpath_view(table))
    sections.setdefault("contention", contention_view(table))
    if obs.provenance is not None:
        from repro.obs.waste import waste_view

        sections.setdefault("aborts", obs.provenance.section())
        sections.setdefault("waste", waste_view(table))
        if "hotness" not in sections:
            sections["hotness"] = hotness = hotness_view(table)
            if obs.timeline is not None:
                _inject_hotness_gauges(obs.timeline, hotness)
    cluster.report_sections = sections
    return sections


def _inject_hotness_gauges(timeline, section):
    window = section["window_s"]
    per_site = {}
    for row in section["top"]:
        series = per_site.setdefault(row["site"], [0.0] * section["windows"])
        for w, score in enumerate(row["scores"]):
            series[w] = max(series[w], score)
    for site in sorted(per_site):
        points = [((w + 1) * window, score)
                  for w, score in enumerate(per_site[site])]
        timeline.inject_gauge(site, "hotness.%s" % site, points)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.report",
        description="Run a scenario and emit a per-site latency report "
                    "plus a Perfetto-loadable causal trace.",
    )
    parser.add_argument("scenario", nargs="?", default=None,
                        choices=sorted(SCENARIOS))
    parser.add_argument("--scenario", dest="scenario_opt", default=None,
                        choices=sorted(SCENARIOS),
                        help="scenario to run (same as the positional)")
    parser.add_argument("--out", default=None,
                        help="metrics report path (default: "
                             "BENCH_throughput.json for the throughput "
                             "scenario, else BENCH_report.json)")
    parser.add_argument("--trace-out", default=None,
                        help="Chrome trace path (default: "
                             "BENCH_throughput_trace.json for the "
                             "throughput scenario, else BENCH_trace.json); "
                             "'' disables the trace file")
    args = parser.parse_args(argv)
    scenario = args.scenario_opt or args.scenario or "commit"
    # The scaling default deliberately differs from the committed
    # BENCH_scaling.json (owned by ``python -m repro.analysis.scaling``,
    # full grid): this is the instrumented reference-column variant.
    default_out, default_trace = {
        "throughput": ("BENCH_throughput.json", "BENCH_throughput_trace.json"),
        "scaling": ("BENCH_scaling_report.json", "BENCH_scaling_trace.json"),
    }.get(scenario, ("BENCH_report.json", "BENCH_trace.json"))
    out = default_out if args.out is None else args.out
    trace_out = default_trace if args.trace_out is None else args.trace_out

    cluster = run_scenario(scenario)
    report = build_report(cluster, scenario=scenario)
    validate_report(report)
    spans = report["spans"]
    print("== scenario: %s ==" % scenario)
    print("virtual time: %.6fs   spans: %d (%d dropped)   traces: %d"
          % (report["virtual_time"], spans["recorded"], spans["dropped"],
             spans["traces"]))
    for name, section in SECTIONS.items():
        if section.title is None or name not in report:
            continue
        text = section.render(report[name])
        if text:
            print("\n== %s ==" % section.title if section.title else "")
            print(text)

    write_json(out, report)
    print("\nwrote %s" % out)
    if trace_out:
        obs = cluster.obs
        write_json(trace_out, to_chrome_trace(
            obs.spans, metrics=obs.metrics, timeline=obs.timeline,
        ))
        print("wrote %s (load at https://ui.perfetto.dev)" % trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
