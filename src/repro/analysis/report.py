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
from repro.obs.provenance import render_aborts_table

__all__ = ["SCENARIOS", "SCENARIO_CONFIG", "THROUGHPUT_TXNS_PER_SITE",
           "THROUGHPUT_RPC_TIMEOUT", "THROUGHPUT_BASELINE", "scenario_cell",
           "run_scenario", "attach_analysis_sections", "throughput_stats",
           "render_table", "render_cache_table", "render_throughput_table",
           "render_critpath_table", "render_contention_table",
           "render_waste_table", "render_hotness_table", "render_slo_table",
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


def _ms(seconds):
    return "%10.3f" % (seconds * 1e3)


def render_table(hub) -> str:
    """The per-site latency breakdown as a printable table (times in ms)."""
    header = "%-6s %-18s %8s %10s %10s %10s %10s" % (
        "site", "metric", "count", "p50ms", "p95ms", "p99ms", "maxms",
    )
    lines = [header, "-" * len(header)]
    for site, metrics in hub.by_site().items():
        for name, summary in metrics.items():
            if name.endswith(".bytes") or name.startswith("disk.qdepth"):
                continue  # not a latency; present in the JSON, not here
            lines.append("%-6s %-18s %8d %s %s %s %s" % (
                site, name, summary["count"],
                _ms(summary["p50"]), _ms(summary["p95"]),
                _ms(summary["p99"]), _ms(summary["max"]),
            ))
    return "\n".join(lines)


def render_cache_table(hub) -> str:
    """Per-site lock-cache effectiveness: hits, misses, hit rate,
    recalls, piggybacked refreshes, and messages saved.  Empty string
    when no site recorded any lock-cache counter (cache off)."""
    counters = hub.counters_by_site()
    rows = []
    for site, values in counters.items():
        hit = values.get("lock.cache.hit", 0)
        miss = values.get("lock.cache.miss", 0)
        recall = values.get("lock.cache.recall", 0)
        refresh = values.get("lock.cache.refresh", 0)
        saved = values.get("lock.cache.msgs_saved", 0)
        if not (hit or miss or recall or refresh or saved):
            continue
        rate = "%6.1f%%" % (100.0 * hit / (hit + miss)) if hit + miss else "     --"
        rows.append("%-6s %8d %8d %8s %8d %8d %10d" % (
            site, hit, miss, rate, recall, refresh, saved,
        ))
    if not rows:
        return ""
    header = "%-6s %8s %8s %8s %8s %8s %10s" % (
        "site", "hit", "miss", "hitrate", "recall", "refresh", "msgs-saved",
    )
    return "\n".join([header, "-" * len(header)] + rows)


def render_throughput_table(section) -> str:
    """The batching on/off comparison as a printable table."""
    on, off = section.get("batching_on", {}), section.get("batching_off", {})
    rows = [
        ("txns committed", "txns", "%d"),
        ("virtual seconds", "virtual_seconds", "%.4f"),
        ("commits/sim-sec", "commits_per_sec", "%.2f"),
        ("commit p50 (ms)", "commit_p50_ms", "%.2f"),
        ("commit p95 (ms)", "commit_p95_ms", "%.2f"),
        ("log I/Os (physical)", "log_ios_physical", "%d"),
        ("log I/Os (logical)", "log_ios_logical", "%d"),
        ("log I/Os / commit", "log_ios_per_commit", "%.2f"),
        ("phase-2 messages", "phase2_messages", "%d"),
        ("phase-2 msgs / commit", "phase2_messages_per_commit", "%.2f"),
        ("group-commit batched", "group_batched", "%d"),
        ("read-only skips", "ro_skips", "%d"),
        ("phase-2 coalesced", "phase2_coalesced", "%d"),
    ]
    header = "%-24s %12s %12s" % ("", "batching=on", "batching=off")
    lines = [header, "-" * len(header)]
    for label, key, fmt in rows:
        lines.append("%-24s %12s %12s" % (
            label, fmt % on.get(key, 0), fmt % off.get(key, 0),
        ))
    lines.append("%-24s %12s" % ("speedup", "%.2fx" % section.get("speedup", 0.0)))
    return "\n".join(lines)


def render_critpath_table(section) -> str:
    """The critical-path blame report as printable text (times in ms):
    aggregate category totals, one row per transaction, and the slowest
    transactions' span-by-span drill-down."""
    lines = []
    cats = section.get("categories", {})
    ccats = section.get("commit_categories", {})
    if cats:
        header = "%-12s %12s %12s" % ("category", "totalms", "commitms")
        lines += [header, "-" * len(header)]
        for cat in sorted(cats, key=lambda c: (-cats[c], c)):
            lines.append("%-12s %12.3f %12.3f" % (
                cat, cats[cat] / 1e6, ccats.get(cat, 0) / 1e6,
            ))
    txns = section.get("transactions", ())
    if txns:
        if lines:
            lines.append("")
        header = "%-6s %-5s %-10s %12s %12s  %s" % (
            "tid", "site", "status", "totalms", "commitms", "dominant",
        )
        lines += [header, "-" * len(header)]
        for txn in txns:
            categories = txn.get("categories", {})
            dominant = (max(categories, key=lambda c: (categories[c], c))
                        if categories else "--")
            commit_ns = (txn.get("commit") or {}).get("total_ns", 0)
            lines.append("%-6s %-5s %-10s %12.3f %12.3f  %s" % (
                txn.get("tid"), txn.get("site"), txn.get("status"),
                txn.get("total_ns", 0) / 1e6, commit_ns / 1e6, dominant,
            ))
    for entry in section.get("top", ()):
        lines.append("")
        lines.append("slowest txn %s (%.3f ms):" % (
            entry.get("tid"), entry.get("total_ns", 0) / 1e6,
        ))
        for step in entry.get("steps", ()):
            lines.append("  %-28s %-12s %10.3f ms" % (
                step["span"], step["category"], step["self_ns"] / 1e6,
            ))
    return "\n".join(lines)


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
    return "\n".join(lines)


def render_waste_table(section) -> str:
    """The wasted-work ledger as printable text (times in ms)."""
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


def render_hotness_table(section) -> str:
    """The windowed contention hotness as printable text."""
    lines = []
    lines.append("%-6s %-18s %10s %10s %8s %7s" % (
        "site", "file:range", "score", "peak", "wait_ms", "aborts"))
    lines.append("-" * 64)
    for row in section.get("top", []):
        lines.append("%-6s %-18s %10.4f %10.4f %8.1f %7d" % (
            row["site"],
            "%s:%d" % (row["file"], row["range_start"]),
            row["score"], row["peak_score"],
            row["wait_s"] * 1e3, row["aborts"]))
    if not section.get("top"):
        lines.append("(no contention recorded)")
    lines.append("windows=%d x %gs  keys=%d  alpha=%g" % (
        section.get("windows", 0), section.get("window_s", 0.0),
        section.get("keys", 0), section.get("alpha", 0.0)))
    return "\n".join(lines)


def render_slo_table(section) -> str:
    """The per-mix SLO burn-rate report (docs/OBSERVABILITY.md, "SLOs
    and burn rates"): one row per objective with its error budget, the
    overall burn, the worst single-window burn, and the verdict."""
    header = "%-10s %-22s %9s %8s %8s %8s %9s %9s  %s" % (
        "mix", "objective", "bound", "total", "bad", "budget",
        "burn", "worstwin", "verdict",
    )
    lines = [header, "-" * len(header)]
    for mix in sorted(section.get("mixes", {})):
        entry = section["mixes"][mix]
        for row in entry.get("objectives", ()):
            bound = ("%.0fms" % (row["bound"] * 1e3)
                     if row["kind"] == "latency" else "%.1f%%"
                     % (row["bound"] * 100.0))
            lines.append("%-10s %-22s %9s %8d %8d %7.1f%% %9.2f %9.2f  %s" % (
                mix, row["name"], bound, row["total"], row["bad"],
                row["budget"] * 100.0, row["burn"], row["worst_burn"],
                "ok" if row["ok"] else "BREACH",
            ))
    lines.append("worst burn %.2f over %d window(s) of %.2fs -- %s" % (
        section.get("worst_burn", 0.0), section.get("windows", 0),
        section.get("window", 0.0),
        "all objectives hold" if section.get("ok")
        else "%d objective(s) breached" % section.get("total_breaches", 0),
    ))
    return "\n".join(lines)


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
    out = args.out
    if out is None:
        # The scaling default deliberately differs from the committed
        # BENCH_scaling.json (owned by ``python -m repro.analysis.scaling``,
        # full grid): this is the instrumented reference-column variant.
        out = {"throughput": "BENCH_throughput.json",
               "scaling": "BENCH_scaling_report.json"}.get(
                   scenario, "BENCH_report.json")
    trace_out = args.trace_out
    if trace_out is None:
        trace_out = {"throughput": "BENCH_throughput_trace.json",
                     "scaling": "BENCH_scaling_trace.json"}.get(
                         scenario, "BENCH_trace.json")

    cluster = run_scenario(scenario)
    obs = cluster.obs

    print("== scenario: %s ==" % scenario)
    print("virtual time: %.6fs   spans: %d (%d dropped)   traces: %d"
          % (cluster.engine.now, len(obs.spans), obs.spans.dropped,
             len(obs.spans.trace_ids())))
    print()
    print(render_table(obs.metrics))
    cache_table = render_cache_table(obs.metrics)
    if cache_table:
        print("\n== lock cache ==")
        print(cache_table)
    sections = getattr(cluster, "report_sections", None) or {}
    for key, title, render in (
            ("throughput", "commit throughput", render_throughput_table),
            ("critpath", "critical path", render_critpath_table),
            ("contention", "contention", render_contention_table),
            ("aborts", "aborts", render_aborts_table),
            ("waste", "waste", render_waste_table),
            ("hotness", "hotness", render_hotness_table)):
        text = render(sections[key]) if key in sections else ""
        if text:
            print("\n== %s ==" % title)
            print(text)

    report = build_report(cluster, scenario=scenario)
    validate_report(report)
    monitors = report.get("monitors")
    if monitors is not None:
        print("\n== monitors ==")
        print("events: %d   checks: %d   violations: %d%s" % (
            monitors["events"], len(monitors["checks"]),
            monitors["total_violations"],
            "   (strict)" if monitors["strict"] else "",
        ))
        for violation in monitors["violations"]:
            print("  [%s] %s" % (violation["check"], violation["message"]))
    slo = report.get("slo")
    if slo is not None:
        print("\n== slo ==")
        print(render_slo_table(slo))
    timeline = report.get("timeline")
    if timeline is not None:
        print("\n== timeline ==")
        print("%d ticks x %.3fs over %d site(s): %d points (%d dropped)" % (
            timeline["ticks"], timeline["tick"], len(timeline["sites"]),
            timeline["points"], timeline["dropped"],
        ))

    write_json(out, report)
    print("\nwrote %s" % out)
    if trace_out:
        write_json(trace_out, to_chrome_trace(
            obs.spans, metrics=obs.metrics, timeline=obs.timeline,
        ))
        print("wrote %s (load at https://ui.perfetto.dev)" % trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
