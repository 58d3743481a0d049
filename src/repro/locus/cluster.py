"""The whole simulated system: sites + network + namespace + the
system-level service processes (deadlock detection, failure handling).

A :class:`Cluster` is the top-level object users build experiments on::

    cluster = Cluster(site_ids=(1, 2, 3))
    drive(cluster.engine, cluster.create_file("/db/accounts", site_id=1))

    def prog(sys):
        yield from sys.begin_trans()
        fd = yield from sys.open("/db/accounts", write=True)
        yield from sys.lock(fd, 100)
        yield from sys.write(fd, b"...")
        yield from sys.end_trans()

    proc = cluster.spawn(prog, site_id=2)
    cluster.run()
"""

from __future__ import annotations

from repro.config import SystemConfig
from repro.core import TxnRegistry, TxnState
from repro.core.twophase import abort_participant
from repro.fs import Namespace, Replica
from repro.locking import CycleCache, LockCancelled, build_wait_graph, choose_victim
from repro.net import MessageKinds, Network
from repro.sim import Engine

from .kernel import Kernel
from .process import PidGenerator
from .site import Site

__all__ = ["Cluster"]


class Cluster:
    """Sites, network, namespace, kernel and system processes."""

    def __init__(self, site_ids=(1, 2, 3), config=None, engine=None):
        self.engine = engine if engine is not None else Engine()
        self.config = config if config is not None else SystemConfig()
        self.cost = self.config.cost
        self.network = Network(self.engine, self.cost)
        self.namespace = Namespace()
        self.txn_registry = TxnRegistry()
        self.txn_registry.engine = self.engine
        self.pids = PidGenerator()
        self.procs = {}
        self.sites = {}
        for sid in site_ids:
            self.add_site(sid)
        self.kernel = Kernel(self)
        self.network.subscribe(self._on_topology_event)
        self._scan_armed = False
        self._last_waitset = frozenset()
        # Per-edge memoization of the detector's cycle walk: identical
        # or shrinking-acyclic snapshots skip the DFS with provably
        # identical results (repro.locking.deadlock.CycleCache).
        self._cycle_cache = CycleCache()
        self._edge_labels = {}  # live wait-for edge -> its instant label
        self.obs = None

    def enable_observability(self, span_capacity=200000, monitors=None,
                             strict=False, timeline_tick=None,
                             sampling=None, slo=True, provenance=None):
        """Attach causal-span tracing and latency quantile sketches.

        Instrumentation is a pure observer: it charges no virtual time,
        so an instrumented run is event-for-event identical to an
        uninstrumented one (see docs/OBSERVABILITY.md).

        ``monitors``/``timeline_tick``/``sampling``/``provenance`` left
        at None default from the ``REPRO_MONITOR`` / ``REPRO_TIMELINE``
        / ``REPRO_SAMPLING`` / ``REPRO_PROVENANCE`` environment
        variables -- so an existing experiment script gains runtime
        verification (or tail-sampled trace retention) without a code
        change."""
        import os

        from repro.obs import Observability

        self.obs = Observability(
            self.engine, span_capacity=span_capacity
        ).install()
        if monitors is None:
            monitors = bool(os.environ.get("REPRO_MONITOR"))
        if timeline_tick is None:
            timeline_tick = float(os.environ.get("REPRO_TIMELINE") or 0)
        if sampling is None:
            sampling = float(os.environ.get("REPRO_SAMPLING") or 0)
        if provenance is None:
            provenance = bool(os.environ.get("REPRO_PROVENANCE"))
        if monitors:
            self.obs.attach_monitors(strict=strict)
        if timeline_tick:
            self.obs.attach_timeline(tick=timeline_tick)
        if sampling:
            self.obs.attach_sampler(head_rate=sampling)
        if slo:
            self.obs.attach_slo()
        if provenance:
            self.obs.attach_provenance()
        return self.obs

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add_site(self, site_id, volume_names=("root",)) -> Site:
        """Create and register a site with the given volumes."""
        site = Site(self, site_id, volume_names=volume_names)
        self.sites[site_id] = site
        site.lock_manager.wait_hook = self._arm_deadlock_scan
        site.lease_manager.wait_hook = self._arm_deadlock_scan
        site.on_incore_reset = self._rewire_site_hooks
        return site

    def _rewire_site_hooks(self, site):
        site.lock_manager.wait_hook = self._arm_deadlock_scan
        site.lease_manager.wait_hook = self._arm_deadlock_scan

    def site(self, site_id) -> Site:
        """The Site object for ``site_id``."""
        return self.sites[site_id]

    @property
    def default_site_id(self):
        return sorted(self.sites)[0]

    # ------------------------------------------------------------------
    # file administration (run these with engine.process / drive)
    # ------------------------------------------------------------------

    def create_file(self, path, site_id=None, replicas=None, volume=None):
        """Generator: create a file and catalogue it.

        ``replicas``: iterable of (site_id, volume_name) or plain site
        ids; the first listed replica is the primary.
        """
        if replicas is None:
            replicas = [(site_id if site_id is not None else self.default_site_id,
                         volume or "root")]
        reps = []
        for spec in replicas:
            sid, vol_name = spec if isinstance(spec, tuple) else (spec, "root")
            site = self.site(sid)
            vol_id = "%s:%s" % (sid, vol_name)
            ino = yield from site.volumes[vol_id].create_file()
            reps.append(Replica(site_id=sid, vol_id=vol_id, ino=ino))
        return self.namespace.add(path, reps)

    def populate(self, path, data):
        """Generator: write committed initial contents to every replica
        (experiment setup; not charged to any measured operation)."""
        info = self.namespace.lookup(path)
        for rep in info.replicas:
            site = self.site(rep.site_id)
            state = site.update_state(rep.file_id)
            owner = ("proc", 0)
            yield from state.write(owner, 0, data)
            yield from state.commit(owner)
            site.maybe_drop_state(rep.file_id)

    def committed_bytes(self, path, start, nbytes):
        """Generator: the durably committed contents at the primary
        (reads through a fresh state: exactly what recovery would see)."""
        from repro.storage import OpenFileState

        rep = self.namespace.lookup(path).primary
        site = self.site(rep.site_id)
        volume = site.volumes[rep.vol_id]
        fresh = OpenFileState(self.engine, self.cost, volume, rep.ino)
        data = yield from fresh.read(start, nbytes)
        return data

    # ------------------------------------------------------------------
    # processes
    # ------------------------------------------------------------------

    def spawn(self, program, *args, site_id=None, name=None, mix=None):
        """Start a top-level process running ``program`` at a site.
        ``mix`` tags the process with its workload-mix label, carried
        into its transactions' spans and per-mix metrics."""
        return self.kernel.spawn(program, args, site_id=site_id, name=name,
                                 mix=mix)

    def run(self, until=None):
        """Advance the simulation (to ``until``, or until idle)."""
        self.engine.run(until=until)

    # ------------------------------------------------------------------
    # failure injection
    # ------------------------------------------------------------------

    def crash_site(self, site_id):
        """Power a site off: processes die, in-core state is lost."""
        self.site(site_id).crash()

    def restart_site(self, site_id, recover=True):
        """Power a site back on and run its recovery pass."""
        site = self.site(site_id)
        recovery = site.reboot(recover=recover)
        self._rewire_site_hooks(site)
        return recovery

    def partition(self, *groups):
        """Split the network into the given site groups."""
        self.network.partition(*groups)
        obs = self.engine.obs
        if obs is not None:
            obs.event(
                "net.partition",
                groups=tuple(tuple(sorted(g)) for g in groups),
            )

    def heal_partition(self):
        """Restore full connectivity."""
        self.network.heal_partition()
        obs = self.engine.obs
        if obs is not None:
            obs.event("net.heal")

    # ------------------------------------------------------------------
    # aggregate statistics
    # ------------------------------------------------------------------

    def io_stats(self):
        """Merged per-category I/O counters across every volume."""
        from collections import Counter

        total = Counter()
        for site in self.sites.values():
            for volume in site.volumes.values():
                total.update(volume.stats.counters)
        return total

    def io_snapshot(self):
        """Alias of :meth:`io_stats` for delta bookkeeping."""
        return self.io_stats()

    def io_delta(self, snapshot):
        """Counter changes since an :meth:`io_snapshot`."""
        from collections import Counter

        delta = self.io_stats()
        delta.subtract(snapshot)
        return Counter({k: v for k, v in delta.items() if v})

    # ------------------------------------------------------------------
    # deadlock detection: a system process armed on demand (section 3.1)
    # ------------------------------------------------------------------

    def _arm_deadlock_scan(self):
        if self._scan_armed:
            return
        self._scan_armed = True
        self.engine.schedule(
            self.config.deadlock_scan_interval, self._start_scan
        )

    def _start_scan(self):
        self._scan_armed = False
        self.engine.process(self._deadlock_scan(), name="deadlock-detector")

    def _deadlock_scan(self):
        """The section 3.1 detector: an ordinary system process, running
        at the lowest-numbered live site, that queries every kernel's
        wait-for data over the network and applies [Coffman71]."""
        up_sites = [s for _sid, s in sorted(self.sites.items()) if s.up]
        if not up_sites:
            return
        home = up_sites[0]
        edge_lists = [home.wait_edges()]
        for site in up_sites[1:]:
            try:
                reply = yield from home.rpc.call(
                    site.site_id, MessageKinds.WAITFOR_QUERY, {}
                )
                edge_lists.append([tuple(e) for e in reply["edges"]])
            except Exception:  # noqa: BLE001 - site died mid-query: skip it
                continue
        graph = build_wait_graph(edge_lists)
        cycle = self._cycle_cache.find_cycle(graph)
        obs = self.engine.obs
        if obs is not None and graph:
            # Wait-for snapshot as a Chrome-trace instant event: the
            # detector's view lines up in Perfetto next to the lock.wait
            # spans it explains.  Pure observer.
            # An edge usually outlives many scans: keep its label while
            # it is in the graph (so the table is bounded by the
            # snapshot) instead of formatting it again every scan.
            known = self._edge_labels
            self._edge_labels = labels = {}
            for w, blockers in graph.items():
                for b in blockers:
                    edge = (w, b)
                    labels[edge] = (known.get(edge)
                                    or "%s:%s->%s:%s" % (w + b))
            obs.spans.instant(
                "deadlock.waitfor", site_id=home.site_id,
                edges=tuple(sorted(labels.values())),
                waiters=sum(1 for blockers in graph.values() if blockers),
            )
        if cycle is not None:
            victim = choose_victim(cycle)
            ordered_edges, closing = (), None
            if obs is not None:
                # Ordered cycle edges with their contention points,
                # read straight off the (in-process) lock managers --
                # the wire protocol still ships bare pairs, so message
                # sizes and seed fingerprints are untouched.  The
                # *closing* edge is the most recently queued wait of
                # the cycle at its site (max FIFO seq; site id breaks
                # cross-site ties deterministically).
                ordered_edges, closing = self._cycle_edge_details(
                    cycle, up_sites)
                obs.spans.instant(
                    "deadlock.cycle", site_id=home.site_id,
                    cycle=tuple("%s:%s" % h for h in cycle),
                    victim="%s:%s" % victim,
                    edges=tuple(
                        "%s->%s@%s:%s[%d,%d)" % e[:6] for e in ordered_edges
                    ),
                    closing=(None if closing is None
                             else "%s->%s@%s:%s[%d,%d)" % closing[:6]),
                )
                # Pin every cycle member's trace: the tail sampler must
                # retain all deadlock participants (no-op unsampled).
                for kind, key in cycle:
                    if kind != "txn":
                        continue
                    member = self.txn_registry.get(key)
                    span = getattr(member, "obs_span", None)
                    if span is not None:
                        obs.spans.mark_trace(span.trace_id)
            if victim[0] == "txn":
                txn = self.txn_registry.get(victim[1])
                if txn is not None and not txn.is_finished():
                    if obs is not None and obs.provenance is not None:
                        obs.provenance.record(
                            txn.tid, "deadlock", reason="deadlock victim",
                            site=txn.top_proc.site_id,
                            mix=getattr(txn, "mix", None),
                            trace_id=getattr(getattr(txn, "obs_span", None),
                                             "trace_id", None),
                            cycle=["%s:%s" % h for h in cycle],
                            edges=[list(e[:6]) for e in ordered_edges],
                            closing=(None if closing is None
                                     else list(closing[:6])),
                        )
                    service = self.site(txn.top_proc.site_id).txn_service
                    yield from service.abort(txn, reason="deadlock victim")
            else:
                for site in self.sites.values():
                    if site.up:
                        site.cancel_waits(victim, LockCancelled("deadlock victim"))
        # Keep scanning while the wait picture is still evolving.  A
        # stalled, cycle-free wait set cannot deadlock until some *new*
        # request queues -- and that re-arms us through the wait hook --
        # so going quiet here both saves work and lets the simulation
        # drain when waiters are (legitimately) blocked forever, e.g.
        # on a lock held across a partition.
        waitset = frozenset(
            (site.site_id, holder)
            for site in self.sites.values()
            if site.up
            for holder in site.waiting_holders()
        )
        if waitset and (cycle is not None or waitset != self._last_waitset):
            self._arm_deadlock_scan()
        self._last_waitset = waitset
        return None
        yield  # pragma: no cover - keeps this a generator

    def _cycle_edge_details(self, cycle, up_sites):
        """Resolve a wait-for cycle's edges to their contention points.

        Returns ``(ordered_edges, closing)`` where ``ordered_edges`` is
        one ``(waiter, blocker, site, file, start, end, seq)`` tuple per
        consecutive cycle pair (waiter/blocker as ``kind:id`` strings,
        in cycle order) and ``closing`` is the most recently queued of
        them (max FIFO seq, site id breaking cross-site ties) -- the
        wait that completed the cycle.  Pure observer: reads the lock
        managers directly, never the simulated network."""
        by_pair = {}
        for site in up_sites:
            for waiter, blocker, file_id, start, end, seq in \
                    site.wait_edge_details():
                key = (waiter, blocker)
                entry = (str(site.site_id), str(file_id),
                         int(start), int(end), int(seq))
                if key not in by_pair or entry < by_pair[key]:
                    by_pair[key] = entry
        ordered = []
        for i, waiter in enumerate(cycle):
            blocker = cycle[(i + 1) % len(cycle)]
            entry = by_pair.get((waiter, blocker))
            w, b = "%s:%s" % waiter, "%s:%s" % blocker
            if entry is None:
                # The wait resolved between the RPC snapshot and this
                # read; keep the edge with an unknown contention point.
                ordered.append((w, b, "?", "?", 0, 0, -1))
            else:
                site_id, file_id, start, end, seq = entry
                ordered.append((w, b, site_id, file_id, start, end, seq))
        closing = None
        for edge in ordered:
            if edge[6] < 0:
                continue
            if closing is None or (edge[6], edge[2]) > (closing[6], closing[2]):
                closing = edge
        return tuple(ordered), closing

    # ------------------------------------------------------------------
    # topology-change handling (section 4.3)
    # ------------------------------------------------------------------

    def _on_topology_event(self, event):
        if event["type"] in ("site_down", "partition"):
            self._expire_leases(event)
            self.engine.process(
                self._handle_topology_change(), name="topology-handler"
            )

    def _expire_leases(self, event):
        """Lease safety across failures (docs/LOCK_CACHE.md): a using
        site stops serving from leases whose storage site became
        unreachable the moment the topology change is detected; a
        storage site immediately forgets leases granted to a *crashed*
        site (its lease-local lock state died with it).  Leases granted
        across a mere partition are instead waited out at the storage
        site -- the recall path overrides them only past their expiry."""
        from repro.locking import LeaseRecalled

        for site in self.sites.values():
            if not site.up:
                continue
            me = site.site_id
            dropped = site.lease_cache.drop_unreachable(
                lambda sid: self.network.reachable(me, sid)
            )
            obs = self.engine.obs
            for file_id in dropped:
                if obs is not None:
                    obs.event("lease.drop", site_id=me, file_id=file_id)
                site.lease_manager.fail_waiters(
                    file_id,
                    LeaseRecalled("lease on %r lost: storage unreachable"
                                  % (file_id,)),
                )
                site.lease_manager.forget_file(file_id)
            if event["type"] == "site_down":
                registry = site.lock_manager.leases
                if registry is not None:
                    registry.drop_site(event["site"])

    def _handle_topology_change(self):
        """Abort every pre-commit-point transaction that now spans
        unreachable sites; committed transactions are left for phase-two
        retry / recovery."""
        for txn in list(self.txn_registry.active()):
            if txn.state in (TxnState.COMMITTED, TxnState.RESOLVED):
                continue
            involved = set(txn.member_sites())
            for proc in txn.members.values():
                involved.update(e[2] for e in proc.file_list)
            top_site = txn.top_proc.site_id
            unreachable = {
                s for s in involved
                if s != top_site and not self.network.reachable(top_site, s)
            }
            if not self.site(top_site).up:
                # The top-level site itself is gone: surviving sites
                # clean up their own residue for this transaction.
                txn.state = TxnState.ABORTING
                txn.abort_reason = "top-level site %s lost" % (top_site,)
                for sid in sorted(involved - {top_site}):
                    if self.site(sid).up:
                        yield from abort_participant(self.site(sid), txn.tid)
                txn.state = TxnState.ABORTED
                if self.obs is not None:
                    self.obs.end(txn.obs_span, status="aborted")
            elif unreachable:
                service = self.site(top_site).txn_service
                yield from service.abort(
                    txn,
                    reason="topology change: lost %s" % sorted(unreachable),
                    skip_sites=unreachable,
                )
                # Section 4.3 cuts both ways: sites on the *other* side
                # of the partition are alive but cannot be told -- each
                # aborts its own residue (locks, queued waits, dirty
                # data) for the transaction independently.
                for sid in sorted(unreachable):
                    if sid in self.sites and self.site(sid).up:
                        yield from abort_participant(self.site(sid), txn.tid)
