"""Load drivers: run record workloads against a cluster and collect
throughput / abort statistics.

Two harnesses share this module:

* :class:`LoadDriver` -- the original fixed-worker harness the
  concurrency experiments use: N worker processes each execute
  transactions drawn from a seeded
  :class:`~repro.workloads.records.RecordWorkload` (read the records,
  update them), with deadlock victims retried a bounded number of
  times.  Results come back as a :class:`LoadResult`.

* :class:`ScalingDriver` -- the thousands-of-clients harness behind
  ``--scenario scaling``: per-client :class:`~repro.workloads.txngen.\
TxnGenerator` streams (Zipf/hotspot keys, config-driven mixes) over
  files striped across every site, launched through one batched
  :meth:`~repro.sim.Engine.schedule_many` call -- either closed-loop
  (each client loops transaction / think time, so concurrency never
  exceeds the client count) or open-loop (Poisson arrivals of
  single-transaction jobs).  Per-transaction client-visible latency
  (including retries) feeds the p99 curves in the scaling report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import drive
from repro.locus import TransactionAborted
from repro.sim import Interrupt

from .randgen import PoissonArrivals, ThinkTimes
from .records import RecordLayout, RecordWorkload
from .txngen import MIXES, TxnGenerator

__all__ = ["LoadDriver", "LoadResult", "ScalingDriver", "ScalingResult"]


@dataclass
class LoadResult:
    """Aggregate outcome of one driver run."""

    committed: int = 0
    aborted: int = 0        # victims that exhausted their retries
    retries: int = 0        # individual aborted attempts
    elapsed: float = 0.0
    worker_times: list = field(default_factory=list)

    @property
    def throughput(self) -> float:
        """Committed transactions per simulated second."""
        return self.committed / self.elapsed if self.elapsed else 0.0

    @property
    def abort_rate(self) -> float:
        """Aborted attempts per attempt."""
        attempts = self.committed + self.retries + self.aborted
        return (self.retries + self.aborted) / attempts if attempts else 0.0


class LoadDriver:
    """Run ``txns_per_worker`` transactions on each of ``workers``."""

    def __init__(self, cluster, path, layout: RecordLayout, *,
                 workers=4, txns_per_worker=5, reads=1, writes=2,
                 hot_fraction=0.0, hot_weight=0.0, max_retries=5, seed=0,
                 upgrades=False):
        self.cluster = cluster
        self.path = path
        self.layout = layout
        self.workers = workers
        self.txns_per_worker = txns_per_worker
        self.max_retries = max_retries
        # upgrades=True takes shared locks first and upgrades at write
        # time -- the read-then-update idiom that produces conversion
        # deadlocks under contention.
        self.upgrades = upgrades
        self._workloads = [
            RecordWorkload(layout, reads_per_txn=reads, writes_per_txn=writes,
                           hot_fraction=hot_fraction, hot_weight=hot_weight,
                           seed=seed * 1000 + w)
            for w in range(workers)
        ]

    # ------------------------------------------------------------------

    def setup(self):
        """Create and populate the shared file (call before run)."""
        drive(self.cluster.engine,
              self.cluster.create_file(self.path,
                                       site_id=self.cluster.default_site_id))
        drive(self.cluster.engine,
              self.cluster.populate(self.path, b"." * self.layout.file_size))

    def run(self) -> LoadResult:
        """Execute the load; returns aggregate statistics."""
        result = LoadResult()
        site_ids = sorted(self.cluster.sites)
        start = self.cluster.engine.now
        procs = []
        for w in range(self.workers):
            prog = self._worker_program(self._workloads[w], result, w)
            procs.append(
                self.cluster.spawn(prog, site_id=site_ids[w % len(site_ids)],
                                   name="load-worker-%d" % w)
            )
        self.cluster.run()
        failures = [p.exit_value for p in procs if p.failed]
        if failures:
            raise failures[0]
        result.elapsed = (max(result.worker_times) - start
                          if result.worker_times else 0.0)
        return result

    # ------------------------------------------------------------------

    def _worker_program(self, workload, result, windex=0):
        layout, path = self.layout, self.path
        rsize = layout.record_size
        max_retries = self.max_retries

        upgrades = self.upgrades

        def prog(sys):
            obs = self.cluster.engine.obs
            for _n in range(self.txns_per_worker):
                txn = workload.next_transaction()
                attempts = 0
                # Retry chain: all attempts of this logical transaction
                # share one chain key, announced with each attempt.
                chain = ("load", windex, _n)

                def note(tid, _chain=chain):
                    obs.event("chain.attempt", chain=_chain, tid=tid)
                while True:
                    try:
                        yield from self._one_txn(sys, path, layout, txn,
                                                 upgrades, note)
                        result.committed += 1
                        obs.event("chain.commit", chain=chain)
                        break
                    except (TransactionAborted, Interrupt):
                        # Victimized: the abort may surface either as the
                        # failed lock wait or as the member interrupt.
                        attempts += 1
                        if attempts > max_retries:
                            result.aborted += 1
                            obs.event("chain.abandon", chain=chain)
                            break
                        result.retries += 1
                        try:
                            yield from sys.sleep(0.01 * attempts)  # backoff
                        except (TransactionAborted, Interrupt):
                            pass  # absorb a straggling duplicate notice
            result.worker_times.append(sys.now)

        return prog

    @staticmethod
    def _one_txn(sys, path, layout, txn, upgrades, note=None):
        rsize = layout.record_size
        yield from sys.begin_trans()
        if note is not None:
            note(sys.tid)
        fd = yield from sys.open(path, write=True)
        for rec in txn.touched():
            yield from sys.seek(fd, layout.offset_of(rec))
            if upgrades:
                mode = "shared"  # read first; upgrade when writing
            else:
                mode = "exclusive" if rec in txn.writes else "shared"
            yield from sys.lock(fd, rsize, mode=mode)
        for rec in txn.reads:
            yield from sys.seek(fd, layout.offset_of(rec))
            yield from sys.read(fd, rsize)
        for rec in txn.writes:
            yield from sys.seek(fd, layout.offset_of(rec))
            if upgrades:
                yield from sys.lock(fd, rsize, mode="exclusive")
                yield from sys.seek(fd, layout.offset_of(rec))
            yield from sys.write(fd, b"u" * rsize)
        yield from sys.end_trans()


# ----------------------------------------------------------------------
# scaling driver
# ----------------------------------------------------------------------

def _quantile(ordered, q):
    """Linear-interpolated quantile of an ascending list (0 when empty)."""
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


@dataclass
class ScalingResult:
    """Aggregate outcome of one :class:`ScalingDriver` run."""

    clients: int = 0
    committed: int = 0
    aborted: int = 0        # transactions that exhausted their retries
    retries: int = 0        # individual aborted attempts
    elapsed: float = 0.0    # virtual makespan of the whole run
    latencies: list = field(default_factory=list)   # per committed txn
    client_times: list = field(default_factory=list)

    @property
    def commits_per_sec(self) -> float:
        """Committed transactions per simulated second."""
        return self.committed / self.elapsed if self.elapsed else 0.0

    @property
    def abort_rate(self) -> float:
        """Aborted attempts per attempt."""
        attempts = self.committed + self.retries + self.aborted
        return (self.retries + self.aborted) / attempts if attempts else 0.0

    def latency_quantile(self, q) -> float:
        """Client-visible commit latency quantile, in virtual seconds."""
        return _quantile(sorted(self.latencies), q)

    def stats(self) -> dict:
        """The per-cell row the scaling report stores (virtual-time
        metrics only, so the document is byte-reproducible)."""
        ordered = sorted(self.latencies)
        return {
            "clients": self.clients,
            "committed": self.committed,
            "aborted": self.aborted,
            "retries": self.retries,
            "abort_rate": self.abort_rate,
            "virtual_seconds": self.elapsed,
            "commits_per_sec": self.commits_per_sec,
            "p50_ms": _quantile(ordered, 0.50) * 1000.0,
            "p95_ms": _quantile(ordered, 0.95) * 1000.0,
            "p99_ms": _quantile(ordered, 0.99) * 1000.0,
        }


class ScalingDriver:
    """Drive ``clients`` arrival-process clients through the cluster.

    The record space is striped across one file per site (record ``r``
    lives in file ``r // per_file``), so Zipf-hot records concentrate
    on the first site and every cross-stripe transaction is a
    distributed one.  Each client owns a seeded
    :class:`~repro.workloads.txngen.TxnGenerator`; locks are taken
    implicitly in access order (reads shared, writes exclusive), which
    makes both upgrade and ordering deadlocks reachable -- victims are
    retried with linear backoff up to ``max_retries``.

    ``arrival="closed"`` runs each client as one looping process
    (transaction, then think time drawn from
    :class:`~repro.workloads.randgen.ThinkTimes`): in-flight
    transactions never exceed ``clients``.  ``arrival="open"`` turns
    the same budget (``clients * txns_per_client``) into Poisson
    arrivals of single-transaction jobs at ``rate`` per second
    (default: ``clients``).  Either way the whole arrival schedule is
    installed with one :meth:`~repro.sim.Engine.schedule_many` call --
    the batched-heapify path sized for thousand-client bursts.
    """

    def __init__(self, cluster, *, record_size=16, record_count=4096,
                 mix="banking", keys="zipf", theta=0.9,
                 hot_fraction=0.1, hot_weight=0.8,
                 clients=64, txns_per_client=2, arrival="closed",
                 rate=None, think_mean=0.05, max_retries=4, seed=0,
                 path_prefix="/scale"):
        if arrival not in ("closed", "open"):
            raise ValueError("arrival must be 'closed' or 'open'")
        if clients <= 0 or txns_per_client <= 0:
            raise ValueError("need at least one client and transaction")
        self.cluster = cluster
        self.mix = mix
        # The resolved mix definition: its name tags every spawned
        # client (threading the mix dimension into spans and per-mix
        # sketches), and its ``slos`` are announced at run start.
        self.mix_def = MIXES[mix] if isinstance(mix, str) else mix
        self.keys = keys
        self.theta = theta
        self.hot_fraction = hot_fraction
        self.hot_weight = hot_weight
        self.clients = clients
        self.txns_per_client = txns_per_client
        self.arrival = arrival
        self.rate = rate
        self.think_mean = think_mean
        self.max_retries = max_retries
        self.seed = seed
        self._site_ids = sorted(cluster.sites)
        nfiles = len(self._site_ids)
        per_file = max(1, record_count // nfiles)
        self._per_file = per_file
        self.record_count = per_file * nfiles
        self._rsize = record_size
        self._paths = ["%s%d" % (path_prefix, sid) for sid in self._site_ids]
        self._payload = b"u" * record_size
        self._chain_seq = 0  # retry-chain keys

    # ------------------------------------------------------------------

    def setup(self):
        """Create and populate one stripe file per site."""
        engine = self.cluster.engine
        fill = b"." * (self._per_file * self._rsize)
        for sid, path in zip(self._site_ids, self._paths):
            drive(engine, self.cluster.create_file(path, site_id=sid))
            drive(engine, self.cluster.populate(path, fill))

    def run(self) -> ScalingResult:
        """Execute the load; returns aggregate statistics."""
        engine = self.cluster.engine
        engine.obs.event("mix.declare", mix=self.mix_def.name,
                         slos=self.mix_def.slos)
        result = ScalingResult(clients=self.clients)
        procs = []
        site_ids = self._site_ids
        nsites = len(site_ids)
        seed_base = self.seed * 2_000_003
        start = engine.now
        if self.arrival == "closed":
            items = []
            for i in range(self.clients):
                gen = self._generator(seed_base + 2 * i, i)
                think = ThinkTimes(self.think_mean, seed=seed_base + 2 * i + 1)
                prog = self._client_program(gen, think, result)
                items.append((
                    think.next_think(),
                    self._launch,
                    (procs, prog, site_ids[i % nsites], "client-%d" % i),
                ))
        else:
            total = self.clients * self.txns_per_client
            arrivals = PoissonArrivals(self.rate or float(self.clients),
                                       seed=seed_base + 1)
            gen = self._generator(seed_base, 0)
            items = []
            for j, when in enumerate(arrivals.times(total)):
                _name, txn = gen.next_transaction()
                prog = self._job_program(txn, result)
                items.append((
                    when,
                    self._launch,
                    (procs, prog, site_ids[j % nsites], "job-%d" % j),
                ))
        engine.schedule_many(items)
        self.cluster.run()
        failures = [p.exit_value for p in procs if p.failed]
        if failures:
            raise failures[0]
        result.elapsed = (max(result.client_times) - start
                          if result.client_times else 0.0)
        return result

    # ------------------------------------------------------------------

    def _generator(self, seed, index):
        # Spread append cursors so logging-mix clients write disjoint
        # regions of the keyspace.
        base = index * max(1, self.record_count // max(self.clients, 1))
        return TxnGenerator(self.record_count, self.mix, keys=self.keys,
                            theta=self.theta, hot_fraction=self.hot_fraction,
                            hot_weight=self.hot_weight, seed=seed,
                            append_base=base)

    def _launch(self, procs, prog, site_id, name):
        procs.append(self.cluster.spawn(prog, site_id=site_id, name=name,
                                        mix=self.mix_def.name))

    def _client_program(self, gen, think, result):
        txns = self.txns_per_client
        paths = self._paths

        def prog(sysc):
            fds = []
            for path in paths:
                fd = yield from sysc.open(path, write=True)
                fds.append(fd)
            for t in range(txns):
                _name, txn = gen.next_transaction()
                yield from self._attempt(sysc, fds, txn, result)
                if t + 1 < txns:
                    pause = think.next_think()
                    if pause:
                        yield from sysc.sleep(pause)
            result.client_times.append(sysc.now)

        return prog

    def _job_program(self, txn, result):
        per_file = self._per_file
        paths = self._paths
        touched = sorted({rec // per_file for rec in txn.touched()})

        def prog(sysc):
            fds = {}
            for f in touched:
                fds[f] = yield from sysc.open(paths[f], write=True)
            yield from self._attempt(sysc, fds, txn, result)
            result.client_times.append(sysc.now)

        return prog

    def _attempt(self, sysc, fds, txn, result):
        """One transaction with bounded retries; records the
        client-visible latency (retries included) on commit."""
        attempts = 0
        started = sysc.now
        obs = self.cluster.engine.obs
        # Retry chain: every attempt is announced under one key.
        chain = ("scale", self.mix_def.name, self._chain_seq)
        self._chain_seq += 1

        def note(tid):
            obs.event("chain.attempt", chain=chain, tid=tid)
        while True:
            try:
                yield from self._one_txn(sysc, fds, txn, note)
                result.committed += 1
                latency = sysc.now - started
                result.latencies.append(latency)
                obs.event("chain.commit", chain=chain)
                # The client-visible latency (retries included): the
                # sample behind the session mix's p95 SLO.
                obs.observe(sysc.site_id, "client.latency", latency,
                            mix=self.mix_def.name)
                return
            except (TransactionAborted, Interrupt):
                attempts += 1
                if attempts > self.max_retries:
                    result.aborted += 1
                    obs.event("chain.abandon", chain=chain)
                    return
                result.retries += 1
                try:
                    yield from sysc.sleep(0.005 * attempts)  # backoff
                except (TransactionAborted, Interrupt):
                    pass  # absorb a straggling duplicate notice

    def _one_txn(self, sysc, fds, txn, note=None):
        """Reads (implicit shared locks) then writes (implicit
        exclusive), in draw order -- the deadlock-capable idiom."""
        per_file = self._per_file
        rsize = self._rsize
        payload = self._payload
        yield from sysc.begin_trans()
        if note is not None:
            note(sysc.tid)
        for rec in txn.reads:
            fd = fds[rec // per_file]
            yield from sysc.seek(fd, (rec % per_file) * rsize)
            yield from sysc.read(fd, rsize)
        for rec in txn.writes:
            fd = fds[rec // per_file]
            yield from sysc.seek(fd, (rec % per_file) * rsize)
            yield from sysc.write(fd, payload)
        yield from sysc.end_trans()
