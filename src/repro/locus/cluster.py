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

#: Delay (virtual seconds) from a request queueing to the deadlock
#: detector's next scan.
DEADLOCK_SCAN_INTERVAL = 0.5


class Cluster:
    """Sites, network, namespace, kernel and system processes."""

    def __init__(self, site_ids=(1, 2, 3), config=None, engine=None):
        self.engine = engine if engine is not None else Engine()
        self.config = config if config is not None else SystemConfig()
        self.cost = self.config.cost
        self.network = Network(self.engine, self.cost)
        self.namespace = Namespace()
        self.txn_registry = TxnRegistry(self.engine)
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
        self.obs = None  # the one answer to "is this run observed?"

    def enable_observability(self, monitors=False, strict=False,
                             timeline_tick=0, provenance=False):
        """Attach causal spans, latency sketches and the SLO tracker --
        and the monitors, timeline and provenance hub when asked.  The
        returned :class:`~repro.obs.Observability` becomes ``self.obs``
        and replaces the engine's null announcer as ``engine.obs``, so
        the hooks protocol code always calls start recording.  The span
        recorder keeps every span up to its capacity.  A pure observer:
        charges no virtual time (docs/OBSERVABILITY.md)."""
        from repro.obs import Observability

        self.obs = obs = Observability(self.engine).install()
        if monitors:
            obs.attach_monitors(strict=strict)
        if timeline_tick:
            obs.attach_timeline(tick=timeline_tick)
        obs.attach_slo()
        if provenance:
            obs.attach_provenance()
        return obs

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add_site(self, site_id, volume_names=("root",)) -> Site:
        """Create and register a site with the given volumes."""
        site = Site(self, site_id, volume_names=volume_names)
        self.sites[site_id] = site
        self._rewire_site_hooks(site)
        return site

    def _rewire_site_hooks(self, site):
        site.lock_manager.wait_hook = self._arm_deadlock_scan
        if site.leases is not None:
            site.leases.manager.wait_hook = self._arm_deadlock_scan

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
        self.engine.obs.event(
            "net.partition", None, tuple(tuple(sorted(g)) for g in groups))

    def heal_partition(self):
        """Restore full connectivity."""
        self.network.heal_partition()
        self.engine.obs.event("net.heal", None)

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
            DEADLOCK_SCAN_INTERVAL, self._start_scan
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
        victim = None if cycle is None else choose_victim(cycle)
        if graph:
            # The scan's view and its verdict, announced before the
            # victim's abort starts.
            self.engine.obs.event(
                "deadlock.scan", home.site_id, graph, cycle, victim,
                up_sites, self.txn_registry)
        if victim is not None and victim[0] == "txn":
            txn = self.txn_registry.get(victim[1])
            if txn is not None and not txn.is_finished():
                service = self.site(txn.top_proc.site_id).txn_service
                yield from service.abort(txn, reason="deadlock victim")
        elif victim is not None:
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

    # ------------------------------------------------------------------
    # topology-change handling (section 4.3)
    # ------------------------------------------------------------------

    def _on_topology_event(self, event):
        if event["type"] in ("site_down", "partition"):
            for site in self.sites.values():
                if site.up and site.leases is not None:
                    site.leases.expire(event)
            self.engine.process(
                self._handle_topology_change(), name="topology-handler"
            )

    def _handle_topology_change(self):
        """Abort every pre-commit-point transaction that now spans
        unreachable sites; committed transactions are left for phase-two
        retry / recovery."""
        for txn in list(self.txn_registry.active()):
            if txn.state in (TxnState.COMMITTED, TxnState.RESOLVED):
                continue
            involved = txn.member_sites() | {e[2] for e in txn.files()}
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
                self.engine.obs.end(txn.obs_span, "aborted")
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
