#!/usr/bin/env python3
"""Two-clock end-to-end benchmark of the Locus simulator.

    python3 benchmarks/e2e/bench.py run --workload W --seed N \\
        --seconds S --trace 0|1 [--runs R] [--quick] [--crosscheck] [--out F]
    python3 benchmarks/e2e/bench.py compare OLD.json NEW.json

The system has two kinds of user and so two clocks.  People judging the
*modelled* Locus design read the virtual clock (commits per virtual
second, latency, I/Os per commit: deterministic for a seed).  People
running grids, reports and tier-1 feel the host clock (seconds of
``driver.run()``, set-up time, peak RSS).  Every workload drives the
public ``repro.workloads.ScalingDriver`` on a ``repro.Cluster``; the
measured phase is ``driver.run()``.

One run = one workload = one *panel*: ``cells`` fresh clusters with
driver seeds derived from ``--seed``, run one after the other in this
process (nothing competes for the box's cores, ``peak_rss_mb`` is the
workload's own).  Virtual metrics pool the panel's cells.  The panel is
swept at least twice, and again while a whole pass fits in
``--seconds``; every pass must reproduce the first one's virtual
fingerprint, and ``wall_s`` sums each cell's fastest ``driver.run()``,
in seconds at reference speed (``hostspeed.py``).
``--trace 1`` adds one more pass with ``layers.py`` wrapped round the
layers' public functions and reports the per-layer metrics instead.
README.md next to this file is the glossary.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SCHEMA = "repro.e2e/1"

RECORD_COUNT = 16384
RECORD_SIZE = 16
RPC_TIMEOUT = 30.0
#: Deadlock victims retry until they commit: a benchmark workload must
#: not fail operations, and the driver's default of 4 abandons a few
#: slots in a thousand under the hot convoy.
MAX_RETRIES = 64
THINK = 0.1
MIN_PASSES = 2
SETUP_PROBES = 5
QUICK_DIVISOR = 8
#: Sampler and cProfile may differ by this much of the run per layer.
CROSSCHECK_TOLERANCE = 0.10
#: Same seed, same virtual clock: two values this close are equal.
EXACT = 1e-9


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mix: str            # key into _mixes()
    clients: int
    txns: int
    cells: int
    sites: int = 3
    batching: bool = True
    arrival: str = "closed"
    rate: float | None = None
    theta: float = 0.9
    obs: bool = False


_OLTP_HOT = Workload(
    "oltp_hot",
    "lock-table bound: 256 closed-loop clients moving money between "
    "Zipf-0.9 accounts; conflict scans, wake-ups and the deadlock "
    "detector are the largest host cost, lock wait is the virtual latency",
    mix="transfer", clients=256, txns=2, cells=4)

WORKLOADS = {w.name: w for w in (
    _OLTP_HOT,
    Workload(
        "oltp_open",
        "protocol bound: open-loop Poisson 6 jobs/s, below the knee, 2-3 "
        "txns in flight, mild skew; engine, RPC, 2PC and shadow paging do "
        "the work; the bypass workload for any lock-table change",
        mix="banking", clients=256, txns=6, cells=5, arrival="open",
        rate=6.0, theta=0.5),
    Workload(
        "session_shared",
        "shared co-holding: 70% 3-read gets share hot ranges with many "
        "co-holders and vote READ_ONLY, 30% blind puts queue behind them; "
        "no deadlock can form",
        mix="session", clients=256, txns=4, cells=4),
    Workload(
        "log_local",
        "one site, commit_batching off, conflict-free appends: no network, "
        "no lock waits, no aborts; shadow pages, unbatched log forces and "
        "the disk queue: the paper's Figure 5 commit path",
        mix="logging", clients=64, txns=24, cells=5, sites=1,
        batching=False, theta=0.0),
    dataclasses.replace(
        _OLTP_HOT, name="oltp_hot_obs", obs=True,
        why="oltp_hot under the observers run_scaling_cell attaches "
        "(strict monitors, provenance, SLOs): prices obs in host time and "
        "RSS; every virtual number must equal oltp_hot's on the same seed"),
)}


@functools.cache
def _mixes():
    """The transaction mixes: the stock ones (``MIXES``), with the
    read-then-upgrade and the second read lock taken out of the two
    contended ones.  Under hot contention stock ``banking`` and
    ``session`` livelock -- the youngest-victim detector kills the same
    retrying reader every 0.5 s while writers starve -- until the
    retries run out, so 2-7 % of slots are abandoned and the makespan
    is whatever the last livelocked pair makes it (README, "Why not the
    stock mixes"; ``test_stock_mixes_livelock`` is the reproducer).  A
    benchmark workload must not fail operations."""
    from repro.workloads import MIXES

    def cut(mix, **changes):
        """``mix`` with the named classes changed and the rest dropped."""
        stock = {c.name: c for c in MIXES[mix].classes}
        return dataclasses.replace(MIXES[mix], classes=tuple(
            dataclasses.replace(stock[name], **fields)
            for name, fields in changes.items()))

    return {
        "logging": MIXES["logging"],
        # No upgrade, one-record reads: a reader never waits while it
        # holds a lock.
        "banking": cut("banking", transfer={},
                       deposit=dict(reads=0, rmw=False),
                       balance=dict(reads=1)),
        # Ordering deadlocks only: two exclusive locks in draw order.
        "transfer": cut("banking", transfer=dict(weight=1.0)),
        # ``refresh`` without its read is a blind put: no lock holder
        # ever waits, so no cycle can form.
        "session": cut("session", get=dict(weight=0.70),
                       refresh=dict(name="put", reads=0, rmw=False,
                                    weight=0.30)),
    }


# ----------------------------------------------------------------------
# metrics (BENCHMARK.json carries the same names, units and bounds)
# ----------------------------------------------------------------------

#: name -> (unit, better, bound, clock).  A bound has to cover the
#: quartile spread of ten runs on ten seeds about three times over
#: (README, "End-to-end metrics"); the widest spreads seen were wall_s
#: 11 % (a busy neighbour, after scaling to reference speed), p50 8 %,
#: p99 6 %, commits_per_vsec 5 % and ios_per_commit 3 % (seeds).
#: ``compare`` uses the host bounds only: on the same seed a virtual
#: metric is exact, and it judges those seed by seed.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25, "host"),
    "wall_s": ("s", "lower", 0.25, "host"),
    "peak_rss_mb": ("MB", "lower", 0.10, "host"),
    "commits_per_vsec": ("1/s", "higher", 0.20, "virtual"),
    "latency_p50_vms": ("ms", "lower", 0.25, "virtual"),
    "latency_p99_vms": ("ms", "lower", 0.25, "virtual"),
    "attempts_per_commit": ("ratio", "lower", 0.05, "virtual"),
    "ios_per_commit": ("count", "lower", 0.15, "virtual"),
}

#: Virtual metrics that are exactly 0 on some workload.  BENCHMARK.json
#: cannot gate them (a gated metric is never 0, hence no bound); ``run``
#: prints them and ``compare`` judges them like the other virtual ones.
ZERO_CAPABLE = {
    "abort_rate": ("ratio", "lower", None, "virtual"),
    "msgs_per_commit": ("count", "lower", None, "virtual"),
}

#: name -> (unit, better)
PER_LAYER = {
    "sim.events": ("count", "lower"),
    "sim.self_s": ("s", "lower"),
    "sim.us_per_event": ("us", "lower"),
    "sim.events_per_wall_s": ("1/s", "higher"),
    "locus.syscalls": ("count", "lower"),
    "locus.self_s": ("s", "lower"),
    "locus.handler_calls": ("count", "lower"),
    "locus.handler_self_s": ("s", "lower"),
    "fs.self_s": ("s", "lower"),
    "workloads.txns_generated": ("count", "lower"),
    "workloads.self_s": ("s", "lower"),
    "core.commits": ("count", "higher"),
    "core.attempt_aborts": ("count", "lower"),
    "core.retries_per_commit": ("ratio", "lower"),
    "core.twophase_runs": ("count", "lower"),
    "core.ro_votes": ("count", "higher"),
    "core.commit_vs_p50": ("s", "lower"),
    "core.self_s": ("s", "lower"),
    "locking.lock_calls": ("count", "lower"),
    "locking.lock_waits": ("count", "lower"),
    "locking.conflict_checks": ("count", "lower"),
    "locking.table_records_mean": ("count", "lower"),
    "locking.table_records_peak": ("count", "lower"),
    "locking.wait_vs_per_commit": ("s", "lower"),
    "locking.self_s": ("s", "lower"),
    "locking.deadlock_scans": ("count", "lower"),
    "locking.deadlock_victims": ("count", "lower"),
    "locking.deadlock_self_s": ("s", "lower"),
    "net.rpc_calls": ("count", "lower"),
    "net.rpc_failed": ("count", "lower"),
    "net.msgs": ("count", "lower"),
    "net.msgs_per_commit": ("count", "lower"),
    "net.bytes": ("count", "lower"),
    "net.rpc_rtt_vs_p50": ("s", "lower"),
    "net.self_s": ("s", "lower"),
    "storage.disk_ios": ("count", "lower"),
    "storage.log_ios": ("count", "lower"),
    "storage.log_forces": ("count", "lower"),
    "storage.group_batch_mean": ("ratio", "higher"),
    "storage.disk_wait_vs_per_commit": ("s", "lower"),
    "storage.self_s": ("s", "lower"),
    "obs.hook_calls": ("count", "lower"),
    "obs.self_s": ("s", "lower"),
    "obs.wall_overhead_ratio": ("ratio", "lower"),
    "obs.spans_retained": ("count", "lower"),
    "obs.goodput_fraction": ("ratio", "higher"),
    "obs.vblame.lock_wait_share": ("ratio", "lower"),
    "obs.vblame.disk_share": ("ratio", "lower"),
    "obs.vblame.net_share": ("ratio", "lower"),
    "obs.vblame.cpu_share": ("ratio", "lower"),
    "obs.vblame.2pc_share": ("ratio", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.unattributed_share": ("ratio", "lower"),
    "trace.spans_dropped": ("count", "lower"),
}

#: critpath blame category -> obs.vblame.* metric
_VBLAME = {
    "lock.wait": "lock_wait", "disk.io": "disk", "disk.queue": "disk",
    "groupcommit": "disk", "net": "net", "rpc.server": "net", "cpu": "cpu",
    "2pc.phase1": "2pc", "2pc.phase2": "2pc",
}


# ----------------------------------------------------------------------
# one cell, one pass
# ----------------------------------------------------------------------

@dataclass
class Cell:
    """What one ``driver.run()`` on a fresh cluster produced."""

    raw_s: float        # measured host seconds of ``driver.run()``
    issued: int
    committed: int
    abandoned: int
    retries: int
    makespan_vs: float
    latencies: list
    io: dict
    msgs: int
    net_bytes: int
    events: int
    wall_s: float = 0.0  # ``raw_s`` at reference speed; run_pass sets it
    problems: list = field(default_factory=list)
    obs: dict = field(default_factory=dict)

    def fingerprint(self):
        """Everything the virtual clock produced, bit for bit.  The
        event count stays out: a host-only change may remove events."""
        return (self.issued, self.committed, self.abandoned, self.retries,
                self.makespan_vs.hex(), sum(self.latencies).hex(),
                max(self.latencies, default=0.0).hex(),
                tuple(sorted(self.io.items())), self.msgs, self.net_bytes)


def _import_repro():
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    # REPRO_* variables switch observers on behind the benchmark's back.
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    import repro  # noqa: F401 - fails here, loudly, when src/ is absent


def cell_seed(seed, index):
    return seed * 1000 + index


def build_cell(w, seed, quick=False):
    """A fresh cluster with its files populated and the driver ready:
    everything a user waits for before ``driver.run()``."""
    from repro import Cluster
    from repro.config import SystemConfig
    from repro.workloads import ScalingDriver

    cluster = Cluster(
        site_ids=tuple(range(1, w.sites + 1)),
        config=SystemConfig(rpc_timeout=RPC_TIMEOUT,
                            commit_batching=w.batching))
    if w.obs:
        cluster.enable_observability(monitors=True, strict=True,
                                     timeline_tick=0.0, provenance=True)
    clients = max(w.clients // QUICK_DIVISOR, 1) if quick else w.clients
    driver = ScalingDriver(
        cluster, record_count=RECORD_COUNT, record_size=RECORD_SIZE,
        mix=_mixes()[w.mix], keys="zipf", theta=w.theta, clients=clients,
        txns_per_client=w.txns, arrival=w.arrival, rate=w.rate,
        think_mean=THINK, max_retries=MAX_RETRIES, seed=seed)
    driver.setup()
    return cluster, driver


def _io_counters(cluster):
    total = Counter()
    for site in cluster.sites.values():
        for volume in site.volumes.values():
            total.update(volume.stats.counters)
    return total


def _events_issued(engine):
    """Callbacks scheduled so far (fired or cancelled).  The engine has
    no public event counter; its sequence counter is the one private
    attribute this benchmark reads -- off its ``count(n)`` repr, since
    itertools objects cannot be copied from Python 3.14 on."""
    seq = getattr(engine, "_seq", None)
    return int(repr(seq)[len("count("):-1]) if seq is not None else 0


def run_cell(w, seed, quick=False, tracer=None, sampler=None, analyse=False):
    from repro.locus.inspect import lock_table

    cluster, driver = build_cell(w, seed, quick)
    engine = cluster.engine
    io0 = _io_counters(cluster)
    net0 = cluster.network.stats.snapshot()
    events0 = _events_issued(engine)
    gc.collect()
    if tracer is not None:
        tracer.start(engine)
    if sampler is not None:
        sampler.start()
    started = perf_counter()
    try:
        result = driver.run()
    finally:
        wall = perf_counter() - started
        if sampler is not None:
            sampler.stop()
        if tracer is not None:
            tracer.stop()
    net = cluster.network.stats.delta_since(net0)
    cell = Cell(
        raw_s=wall, issued=driver.clients * driver.txns_per_client,
        committed=result.committed, abandoned=result.aborted,
        retries=result.retries, makespan_vs=result.elapsed,
        latencies=result.latencies,
        io=dict(_io_counters(cluster) - io0),
        msgs=net.get("net.messages", 0), net_bytes=net.get("net.bytes", 0),
        events=_events_issued(engine) - events0)
    bad = cell.problems
    if cell.committed + cell.abandoned != cell.issued:
        bad.append("committed %d + abandoned %d != issued %d"
                   % (cell.committed, cell.abandoned, cell.issued))
    if len(cell.latencies) != cell.committed:
        bad.append("latency samples != commits")
    if engine.step():
        bad.append("engine had not drained")
    if any(lock_table(site) for site in cluster.sites.values()):
        bad.append("lock tables not empty after the run")
    if cluster.txn_registry.active():
        bad.append("transactions still active after the run")
    if w.sites == 1 and cell.msgs:
        bad.append("%d network messages on a one-site cluster" % cell.msgs)
    if w.obs:
        monitors = cluster.obs.finish_monitors()
        if monitors.total_violations:
            bad.append("%d monitor violations" % monitors.total_violations)
        cell.obs["spans_retained"] = len(cluster.obs.spans)
        if analyse:
            from repro.obs.critpath import critpath_section
            from repro.obs.waste import waste_ledger

            ledger = waste_ledger(cluster.obs)
            cell.obs["committed_ns"] = ledger["committed_ns"]
            cell.obs["wasted_ns"] = ledger["wasted_ns"]
            cell.obs["blame_ns"] = critpath_section(cluster.obs)["categories"]
    return cell


@dataclass
class Pass:
    """One sweep over the panel."""

    cells: list

    def total(self, attr):
        return sum(getattr(c, attr) for c in self.cells)

    @property
    def wall_s(self):
        return self.total("wall_s")

    @property
    def problems(self):
        return ["cell %d: %s" % (i, p)
                for i, c in enumerate(self.cells) for p in c.problems]

    def fingerprint(self):
        blob = repr([c.fingerprint() for c in self.cells]).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def io(self, *keys):
        return sum(c.io.get(k, 0) for c in self.cells for k in keys)

    def virtual_metrics(self):
        committed = self.total("committed")
        latencies = sorted(x for c in self.cells for x in c.latencies)
        attempts = committed + self.total("retries") + self.total("abandoned")
        return {
            "commits_per_vsec": committed / self.total("makespan_vs"),
            "latency_p50_vms": 1000.0 * _quantile(latencies, 0.50),
            "latency_p99_vms": 1000.0 * _quantile(latencies, 0.99),
            "attempts_per_commit": attempts / committed,
            "ios_per_commit": self.io("io.total") / committed,
            "abort_rate": 1.0 - committed / attempts,
            "msgs_per_commit": self.total("msgs") / committed,
        }


def run_pass(w, seed, quick=False, **instruments):
    """One sweep over the panel, the host's speed taken between cells."""
    cells = []
    before = hostspeed.kernel_seconds()
    for i in range(2 if quick else w.cells):
        cell = run_cell(w, cell_seed(seed, i), quick, **instruments)
        after = hostspeed.kernel_seconds()
        cell.wall_s = hostspeed.at_reference_speed(cell.raw_s, before, after)
        cells.append(cell)
        before = after
    return Pass(cells)


def _quantile(ordered, q):
    """Linear-interpolated quantile of an ascending list."""
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def run_passes(w, seed, seconds, quick=False):
    """Sweep the panel at least ``MIN_PASSES`` times, and again while
    another whole pass fits in ``seconds``."""
    passes = []
    started = perf_counter()
    while True:
        pass_started = perf_counter()
        passes.append(run_pass(w, seed, quick))
        now = perf_counter()
        if quick or (len(passes) >= MIN_PASSES
                     and (now - started) + (now - pass_started) > seconds):
            return passes


def fastest_wall(passes):
    """The panel's host seconds: each cell's fastest ``driver.run()``
    over the passes, summed.  The passes do identical work, and a shared
    box only ever slows a cell down, in bursts from tens of
    milliseconds to tens of seconds; the minimum is the steadiest
    estimate of what the code costs."""
    return sum(min(p.cells[i].wall_s for p in passes)
               for i in range(len(passes[0].cells)))


# ----------------------------------------------------------------------
# one run of one workload
# ----------------------------------------------------------------------

def probe_setup(w, seed, quick, probes):
    """Set-up time as a fresh process pays it: interpreter start,
    imports, Zipf table, ``Cluster()``, observers, ``driver.setup()``.
    Each probe is its own interpreter, timed from outside."""
    cmd = [sys.executable, str(HERE / "bench.py"), "_setup",
           "--workload", w.name, "--seed", str(seed)]
    if quick:
        cmd.append("--quick")
    times = []
    before = hostspeed.kernel_seconds()
    for _ in range(probes):
        started = perf_counter()
        done = subprocess.run(cmd, stdout=subprocess.DEVNULL)
        took = perf_counter() - started
        if done.returncode:
            raise SystemExit("set-up probe failed (exit %d)" % done.returncode)
        after = hostspeed.kernel_seconds()
        times.append(hostspeed.at_reference_speed(took, before, after))
        before = after
    return times


def measure(w, seed, seconds, trace=False, quick=False, crosscheck=False):
    """Run the workload; returns the result record."""
    hostspeed.kernel()      # untimed: the first call compiles and warms
    setups = probe_setup(w, seed, quick, 1 if quick else SETUP_PROBES)
    _import_repro()
    problems = []

    # Warm-up, untimed: first-call costs (code objects, the shared Zipf
    # table, allocator arenas) are set-up, not steady state.
    run_cell(w, cell_seed(seed, 0), quick=True)

    passes = run_passes(w, seed, seconds, quick)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    first = passes[0]
    problems += first.problems
    fingerprint = first.fingerprint()
    for i, other in enumerate(passes[1:], 2):
        if other.fingerprint() != fingerprint:
            problems.append("pass %d virtual fingerprint differs" % i)
    metrics = {"setup_s": statistics.median(setups),
               "wall_s": fastest_wall(passes),
               "peak_rss_mb": peak_rss_mb}
    metrics.update(first.virtual_metrics())
    detail = {
        "fingerprint": fingerprint, "passes": len(passes),
        "wall_passes_s": [p.wall_s for p in passes],
        "raw_passes_s": [p.total("raw_s") for p in passes],
        "setup_probes_s": setups,
        "cells": len(first.cells), "committed": first.total("committed"),
        "retries": first.total("retries"),
        "makespan_vs": first.total("makespan_vs"),
    }

    # Observers must not move the virtual clock: the same panel without
    # them has to reproduce the fingerprint, in every run.
    bases = []
    if w.obs:
        bases.append(run_base(w, seed, quick, fingerprint, problems))

    layer_metrics = None
    if trace or crosscheck:
        layer_metrics, traced_detail = trace_pass(
            w, seed, quick, metrics["wall_s"], fingerprint, bases, problems)
        detail.update(traced_detail)
    if crosscheck:
        detail["crosscheck"] = cross_check(w, seed, quick, detail, problems)

    reported = {**END_TO_END, **ZERO_CAPABLE}
    record = {
        "schema": SCHEMA, "workload": w.name, "seed": seed,
        "seconds": seconds, "trace": int(trace), "comparable": not quick,
        "correct": not problems, "problems": problems,
        "attempted": first.total("issued"),
        "failed": first.total("abandoned"),
        "metrics": _with_units(layer_metrics, PER_LAYER) if trace
        else _with_units(metrics, END_TO_END),
        "end_to_end": _with_units(metrics, reported),
        "detail": detail,
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
    }
    return record


def run_base(w, seed, quick, fingerprint, problems):
    """One pass of ``w``'s panel without its observers."""
    base = run_pass(dataclasses.replace(w, obs=False), seed, quick)
    problems += ["base " + p for p in base.problems]
    if base.fingerprint() != fingerprint:
        problems.append("observers changed the virtual fingerprint")
    return base


def _with_units(values, table):
    return {name: {"value": values[name], "unit": table[name][0]}
            for name in table}


def trace_pass(w, seed, quick, untraced_wall, fingerprint, bases, problems):
    """Two more passes: one sampled (host time per layer), one with the
    layers' public functions wrapped (counts, virtual time, spans).
    Returns the per-layer metrics and the detail block."""
    import layers

    base_wall = None
    if bases:
        # The observers' price: against the base's fastest of two, as
        # ``untraced_wall`` is a fastest of at least two.
        bases.append(run_base(w, seed, quick, fingerprint, problems))
        base_wall = fastest_wall(bases)

    sampler = layers.Sampler()
    sampled = run_pass(w, seed, quick, sampler=sampler)
    share = sampler.shares()

    tracer = layers.Tracer()
    patches = layers.install(tracer)
    try:
        traced = run_pass(w, seed, quick, tracer=tracer, analyse=w.obs)
    finally:
        patches.remove()
    for label, other in (("sampled", sampled), ("traced", traced)):
        problems += ["%s %s" % (label, p) for p in other.problems]
        if other.fingerprint() != fingerprint:
            problems.append("the %s pass changed the virtual fingerprint"
                            % label)

    counts = tracer.counts
    vtimes = tracer.vtimes
    commits = traced.total("committed")
    events = traced.total("events")

    def self_s(bucket):
        # Shares of the sampled pass, seconds of the untraced ones: the
        # layers (and the unattributed rest) add up to ``wall_s``.
        return share[bucket] * untraced_wall

    def calls(prefix):
        return sum(n for key, n in counts.items() if key.startswith(prefix))

    def vsum(*names):
        return sum(sum(vtimes.get(name, ())) for name in names)

    def vmedian(name):
        return statistics.median(vtimes[name]) if vtimes.get(name) else 0.0

    log_writes = traced.io("io.write.log")
    log_forces = (counts.get("storage.append", 0)
                  + counts.get("storage.append_in_place", 0))
    samples = tracer.table_samples
    m = {
        "sim.events": events,
        "sim.self_s": self_s("sim"),
        "sim.us_per_event": 1e6 * self_s("sim") / events if events else 0.0,
        "sim.events_per_wall_s": events / untraced_wall,
        "locus.syscalls": calls("locus.sys_"),
        "locus.self_s": self_s("locus"),
        "locus.handler_calls": counts.get("locus.handler", 0),
        "locus.handler_self_s": self_s("locus.handler"),
        "fs.self_s": self_s("fs"),
        "workloads.txns_generated": counts.get(
            "workloads.next_transaction", 0),
        "workloads.self_s": self_s("workloads"),
        "core.commits": commits,
        "core.attempt_aborts": (traced.total("retries")
                                + traced.total("abandoned")),
        "core.retries_per_commit": traced.total("retries") / commits,
        "core.twophase_runs": counts.get("core.run_two_phase_commit", 0),
        "core.ro_votes": counts.get("core.ro_votes", 0),
        "core.commit_vs_p50": vmedian("2pc.run_two_phase_commit"),
        "core.self_s": self_s("core"),
        "locking.lock_calls": counts.get("locking.lock", 0),
        "locking.lock_waits": counts.get("locking.lock_waits", 0),
        "locking.conflict_checks": counts.get("locking.conflicts", 0),
        "locking.table_records_mean": (statistics.fmean(samples)
                                       if samples else 0.0),
        "locking.table_records_peak": max(samples, default=0),
        "locking.wait_vs_per_commit": vsum("lock") / commits,
        "locking.self_s": self_s("locking"),
        "locking.deadlock_scans": counts.get("locking.build_wait_graph", 0),
        "locking.deadlock_victims": counts.get("locking.choose_victim", 0),
        "locking.deadlock_self_s": self_s("locking.deadlock"),
        "net.rpc_calls": counts.get("net.call", 0),
        "net.rpc_failed": counts.get("net.rpc_failed", 0),
        "net.msgs": traced.total("msgs"),
        "net.msgs_per_commit": traced.total("msgs") / commits,
        "net.bytes": traced.total("net_bytes"),
        "net.rpc_rtt_vs_p50": vmedian("rpc.call"),
        "net.self_s": self_s("net"),
        "storage.disk_ios": traced.io("io.total"),
        "storage.log_ios": traced.io("io.write.log", "io.write.log_inode",
                                     "io.read.log"),
        "storage.log_forces": log_forces,
        "storage.group_batch_mean": (log_forces / log_writes
                                     if log_writes else 0.0),
        "storage.disk_wait_vs_per_commit": vsum(
            "disk.read_block", "disk.write_block") / commits,
        "storage.self_s": self_s("storage"),
        "obs.hook_calls": calls("obs."),
        "obs.self_s": self_s("obs"),
        "obs.wall_overhead_ratio": (untraced_wall / base_wall
                                    if base_wall else 1.0),
        "obs.spans_retained": sum(c.obs.get("spans_retained", 0)
                                  for c in traced.cells),
        "obs.goodput_fraction": 0.0,
        "trace.overhead_ratio": traced.wall_s / untraced_wall,
        "trace.unattributed_share": share["unattributed"],
        "trace.spans_dropped": tracer.spans_dropped,
    }
    blame = dict.fromkeys(set(_VBLAME.values()), 0)
    good = wasted = 0
    for cell in traced.cells:
        good += cell.obs.get("committed_ns", 0)
        wasted += cell.obs.get("wasted_ns", 0)
        for category, ns in cell.obs.get("blame_ns", {}).items():
            blame[_VBLAME.get(category, "cpu")] += ns
    if good + wasted:
        m["obs.goodput_fraction"] = good / (good + wasted)
    blamed = sum(blame.values())
    for short, ns in blame.items():
        m["obs.vblame.%s_share" % short] = ns / blamed if blamed else 0.0

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / ("%s.trace.json" % w.name)
    with open(trace_path, "w") as fh:
        json.dump({"schema": SCHEMA + "/trace", "workload": w.name,
                   "seed": seed, "spans_dropped": tracer.spans_dropped,
                   "spans": tracer.span_rows()}, fh)
    detail = {
        "sampled_wall_s": sampled.wall_s, "samples": sampler.samples,
        "traced_wall_s": traced.wall_s, "base_wall_s": base_wall,
        "layer_share": {name: share[name]
                        for name in layers.LAYERS + ("unattributed",)},
        "calls": dict(sorted(counts.items())),
        "patch_targets_missing": tracer.missing,
        "trace_file": str(trace_path.relative_to(ROOT)),
    }
    return m, detail


def cross_check(w, seed, quick, detail, problems):
    """The independent profiler must tell the sampler's story: each
    layer's share of cProfile self time within ``CROSSCHECK_TOLERANCE``
    of its share of the samples."""
    import layers

    profiler = layers.Profiler()
    run_pass(w, seed, quick, sampler=profiler)
    profiled = profiler.shares()
    sampled = detail["layer_share"]
    rows = {}
    for layer in ("locking", "sim", "storage", "net", "core"):
        ours, theirs = sampled[layer], profiled[layer]
        rows[layer] = {"sampled": ours, "cprofile": theirs}
        if abs(ours - theirs) > CROSSCHECK_TOLERANCE:
            problems.append(
                "crosscheck: %s sampled %.1f%% vs cProfile %.1f%%"
                % (layer, 100 * ours, 100 * theirs))
    return rows


# ----------------------------------------------------------------------
# printing
# ----------------------------------------------------------------------

def print_record(record, out=sys.stdout):
    d = record["detail"]
    say = lambda text="": print(text, file=out)  # noqa: E731
    say("== %s  seed %d  %s==" % (
        record["workload"], record["seed"],
        "" if record["comparable"] else "(quick: not comparable) "))
    say("  %s" % WORKLOADS[record["workload"]].why)
    say("  panel %d cells x %d pass(es), %d commits, fingerprint %s"
        % (d["cells"], d["passes"], d["committed"], d["fingerprint"]))
    for name, entry in record["end_to_end"].items():
        extra = ""
        if name == "wall_s":
            extra = "   passes: %s  (as measured: %s)" % tuple(
                " ".join("%.3f" % x for x in d[key])
                for key in ("wall_passes_s", "raw_passes_s"))
        elif name == "setup_s":
            extra = "   probes: " + " ".join(
                "%.3f" % x for x in d["setup_probes_s"])
        elif name.startswith("latency"):
            extra = "   n=%d" % d["committed"]
        say("  %-26s %14.4f %-6s%s" % (name, entry["value"], entry["unit"],
                                      extra))
    say("  %-26s %14.6f        (%d abandoned / %d issued)" % (
        "failed_fraction", record["failed"] / record["attempted"],
        record["failed"], record["attempted"]))
    if "layer_share" in d:
        wall = record["end_to_end"]["wall_s"]["value"]
        say("  -- host time by layer: %d samples of an unpatched pass "
            "(%.3f s), as shares of wall_s --"
            % (d["samples"], d["sampled_wall_s"]))
        for layer, share in sorted(d["layer_share"].items(),
                                   key=lambda kv: -kv[1]):
            say("  %-26s %13.1f%%  %9.3f s" % (
                "host share: " + layer, 100 * share, share * wall))
        say("  -- wrapped pass (counts, spans): %.3f s, %.2fx the untraced "
            "wall --" % (d["traced_wall_s"], d["traced_wall_s"] / wall))
        if record["trace"]:
            for name, entry in record["metrics"].items():
                say("  %-32s %16.6g %s" % (name, entry["value"],
                                           entry["unit"]))
        if d["patch_targets_missing"]:
            say("  patch targets missing: %s" % d["patch_targets_missing"])
        say("  spans: %s" % d["trace_file"])
    if "crosscheck" in d:
        say("  -- crosscheck: share of host self time --")
        say("  %-12s %10s %10s" % ("layer", "sampled", "cProfile"))
        for layer, row in d["crosscheck"].items():
            say("  %-12s %9.1f%% %9.1f%%" % (
                layer, 100 * row["sampled"], 100 * row["cprofile"]))
    for problem in record["problems"]:
        say("  FAILED CHECK: %s" % problem)


def contract_line(record):
    return json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"], "metrics": record["metrics"]})


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def append_result(path, record):
    path = Path(path)
    doc = {"schema": SCHEMA, "runs": []}
    if path.exists():
        with open(path) as fh:
            doc = json.load(fh)
    doc["runs"].append(record)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def cmd_run(args):
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    jobs = [(name, seed) for name in names
            for seed in range(args.seed, args.seed + args.runs)]
    if len(jobs) == 1:
        record = measure(WORKLOADS[names[0]], args.seed, args.seconds,
                         trace=bool(args.trace), quick=args.quick,
                         crosscheck=args.crosscheck)
        print_record(record)
        if args.out:
            append_result(args.out, record)
        print(contract_line(record))
        return 0 if record["correct"] else 1

    # Several runs: each in a child of its own, one after the other, so
    # peak RSS is per run and nothing competes for the cores.
    status = 0
    for name, seed in jobs:
        cmd = [sys.executable, str(HERE / "bench.py"), "run",
               "--workload", name, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        cmd += ["--quick"] if args.quick else []
        cmd += ["--crosscheck"] if args.crosscheck else []
        cmd += ["--out", args.out] if args.out else []
        status = subprocess.run(cmd).returncode or status
    return status


def cmd_setup(args):
    _import_repro()
    build_cell(WORKLOADS[args.workload], cell_seed(args.seed, 0), args.quick)
    return 0


def _load_runs(path):
    with open(path) as fh:
        doc = json.load(fh)
    by_workload = {}
    for run in doc["runs"]:
        if not run["trace"]:
            by_workload.setdefault(run["workload"], []).append(run)
    return by_workload


def _quartiles(runs, metric):
    """(q1, median, q3, quartile spread as a share of the median)."""
    values = [r["end_to_end"][metric]["value"] for r in runs]
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (median,) * 3)
    return q1, median, q3, (q3 - q1) / median if median else 0.0


def _host_verdict(a, b, better, bound):
    """Medians against the noise-sized bound."""
    if max(a[3], b[3]) > bound:
        return "unresolved", "quartile spread exceeds the bound"
    ratio = b[1] / a[1]
    gain = ratio - 1.0 if better == "higher" else 1.0 - ratio
    return ("worse" if gain < -bound else "better" if gain > bound
            else "same"), ""


def _exact_verdict(pairs, metric, better):
    """Seed by seed: on one seed a virtual metric repeats exactly, so
    any difference is the change's doing and any worsening counts."""
    if not pairs:
        return "unresolved", "no seed is in both files"
    won = lost = 0
    for old, new in pairs:
        x = old["end_to_end"][metric]["value"]
        y = new["end_to_end"][metric]["value"]
        if abs(y - x) > EXACT * max(abs(x), abs(y)):
            if (y > x) == (better == "higher"):
                won += 1
            else:
                lost += 1
    return ("worse" if lost else "better" if won else "same",
            "worse on %d, better on %d of %d seeds" % (lost, won, len(pairs)))


def cmd_compare(args):
    old, new = _load_runs(args.old), _load_runs(args.new)
    row = "%-15s %-20s %12s %12s %22s %22s %8s  %-10s %s"
    print(row % ("workload", "metric", "old median", "new median",
                 "old q1..q3", "new q1..q3", "new/old", "verdict", ""))
    worse = False
    widest = [(0.0, "-"), (0.0, "-")]      # old, new: (spread / bound, where)
    for name in WORKLOADS:
        if name not in old or name not in new:
            continue
        olds, news = old[name], new[name]
        if not all(r["comparable"] for r in olds + news):
            print("%-15s quick runs are not comparable" % name)
            continue
        by_seed = {r["seed"]: r for r in olds}
        pairs = [(by_seed[r["seed"]], r) for r in news if r["seed"] in by_seed]
        paired = ([p[0] for p in pairs], [p[1] for p in pairs])
        for metric, (_unit, better, bound, clock) in {
                **END_TO_END, **ZERO_CAPABLE}.items():
            if clock == "host":
                a, b = _quartiles(olds, metric), _quartiles(news, metric)
                verdict, note = _host_verdict(a, b, better, bound)
            else:
                a, b = (_quartiles(runs, metric) if runs else (0.0,) * 4
                        for runs in paired)
                verdict, note = _exact_verdict(pairs, metric, better)
            worse = worse or verdict == "worse"
            print(row % (
                name, metric, "%.4f" % a[1], "%.4f" % b[1],
                "%.4f..%.4f" % (a[0], a[2]), "%.4f..%.4f" % (b[0], b[2]),
                "%.4f" % (b[1] / a[1]) if a[1] else "-", verdict, note))
            if bound is not None and metric != "setup_s":
                # What the driver asks of BENCHMARK.json: ten runs on ten
                # seeds spread no wider than the bound.
                for i, runs in enumerate((olds, news)):
                    share = _quartiles(runs, metric)[3] / bound
                    widest[i] = max(widest[i],
                                    (share, "%s on %s" % (metric, name)))
        fail_old = (sum(r["failed"] for r in olds)
                    / sum(r["attempted"] for r in olds))
        fail_new = (sum(r["failed"] for r in news)
                    / sum(r["attempted"] for r in news))
        more = fail_new > fail_old
        worse = worse or more
        print(row % (name, "failed_fraction", "%.6f" % fail_old,
                     "%.6f" % fail_new, "", "", "",
                     "worse" if more else "same", ""))
        # Same seed, same code => the same virtual clock, to the bit.
        changed = [new["seed"] for old, new in pairs
                   if old["detail"]["fingerprint"]
                   != new["detail"]["fingerprint"]]
        print(row % (name, "virtual_clock", "", "", "", "", "",
                     "changed" if changed else "same",
                     "bit-identical on %d of %d paired seeds%s" % (
                         len(pairs) - len(changed), len(pairs),
                         "; PROTOCOL CHANGE on seeds %s" % changed
                         if changed else "")))
    for label, (share, where) in zip(("old", "new"), widest):
        print("%s: widest quartile spread is %.2f of its bound (%s; "
              "setup_s aside)" % (label, share, where))
    return 1 if worse else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one workload (or all of them)")
    run.add_argument("--workload", default="all",
                     choices=list(WORKLOADS) + ["all"])
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--runs", type=int, default=1,
                     help="this many runs, seeds --seed, --seed+1, ...")
    run.add_argument("--seconds", type=float, default=10.0,
                     help="repeat the panel while whole passes fit")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--quick", action="store_true",
                     help="1/8-size smoke run; output is not comparable")
    run.add_argument("--crosscheck", action="store_true",
                     help="also profile with cProfile and compare shares")
    run.add_argument("--out", help="append the result record to this file")
    run.set_defaults(func=cmd_run)

    setup = sub.add_parser("_setup")  # one set-up probe; see probe_setup
    setup.add_argument("--workload", required=True, choices=list(WORKLOADS))
    setup.add_argument("--seed", type=int, default=0)
    setup.add_argument("--quick", action="store_true")
    setup.set_defaults(func=cmd_setup)

    compare = sub.add_parser("compare", help="verdict per workload x metric")
    compare.add_argument("old")
    compare.add_argument("new")
    compare.set_defaults(func=cmd_compare)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
