"""Online protocol monitors: runtime verification of the paper's
safety arguments.

Section 6 of the paper *argues* that two-phase commit, two-phase
locking, and the no-steal WAL keep their promises; this module *checks*
them, continuously, while the simulation runs.  Instrumentation sites
throughout the stack announce one-line protocol events
(``engine.obs.event(kind, ...)``); a :class:`MonitorHub` subscribes its
four online state machines' handlers to those kinds:

``TwoPhaseMonitor``
    No COMMIT is decided or delivered for a transaction with a recorded
    NO vote (``2pc.commit_after_no``); no transaction both commits and
    aborts -- conflicting decisions at the coordinator, a delivery
    contradicting the decision, or one participant applying both
    (``2pc.conflicting_decision``); and, at :meth:`MonitorHub.finish`,
    every YES-voting participant of a committed transaction received
    the decision unless it or its coordinator crashed or a network
    partition separated the pair (``2pc.lost_decision``).
``LockMonitor``
    No two conflicting grants on overlapping byte ranges coexist at any
    instant (``lock.conflicting_grant``) -- cross-checked against the
    live :class:`~repro.locking.table.LockTable` via
    ``conflicting_pairs``, not against the monitor's own bookkeeping,
    so a bug in the grant path cannot hide from a mirror of itself.
``LeaseMonitor``
    Every lease-local grant at a using site is covered by a live lease
    (``lease.uncovered_grant``) that has not expired
    (``lease.expired_grant``), and a recalled lease ships every
    un-mirrored lock record back to storage before the requester is
    served (``lease.recall_lost_state``) -- mirrored state is tracked
    independently from ``lease.mirror`` events, keeping the check
    non-circular.
``WalMonitor``
    Committed bytes never regress (``wal.committed_regressed``): an
    abort must not clobber committed-but-uncheckpointed bytes inside
    the ranges it restores, and a checkpoint must leave every committed
    byte durable on disk -- the generalization of the latent no-steal
    bug PR 1 fixed from a one-off regression test into a
    continuously-checked invariant.

A violation emits a ``monitor.violation`` Chrome-trace Instant marker,
increments the ``monitor.violations.<check>`` counter, and with
``strict=True`` raises :class:`MonitorViolation` carrying the offending
event chain.  Crash/partition legality is modelled, not ignored:
``site.crash`` and ``net.partition`` reset a crashed site's leases and
waive 2PC delivery liveness for separated or crashed pairs
(``tests/obs/test_monitor_faults.py``).

Offline replay: :func:`events_from_trace` reconstructs the 2PC event
stream from a saved Chrome trace (the ``vote``/``tid`` span attributes
written by ``core/twophase.py``) so ``python -m repro.obs.lint
--monitors`` can audit committed ``BENCH_trace.json`` artifacts without
re-running scenarios.  Offline mode checks 2PC safety only -- lock,
lease and WAL checks need live table/page references, and liveness
needs crash knowledge a trace does not carry.
"""

from __future__ import annotations

from repro.core import TxnState

__all__ = [
    "MonitorEvent",
    "MonitorViolation",
    "MonitorHub",
    "TwoPhaseMonitor",
    "LockMonitor",
    "LeaseMonitor",
    "WalMonitor",
    "events_from_trace",
    "replay_trace",
]

#: Violation records kept verbatim in the report section (the counters
#: always count everything).
_SECTION_SAMPLE = 20


class MonitorViolation(AssertionError):
    """A protocol invariant broke.  Carries the failed check name and
    the chain of monitor events that establishes the violation."""

    def __init__(self, check, message, events=()):
        super().__init__("[%s] %s" % (check, message))
        self.check = check
        self.message = message
        self.events = tuple(events)


class MonitorEvent:
    """One announced protocol event, as every subscriber receives it."""

    __slots__ = ("kind", "site_id", "ts", "attrs")

    def __init__(self, kind, site_id, ts, attrs):
        self.kind = kind
        self.site_id = site_id
        self.ts = ts
        self.attrs = attrs

    def get(self, name, default=None):
        return self.attrs.get(name, default)

    def __repr__(self):
        # Exact types, which leaves a TransactionId (a tuple subclass)
        # out: violation reports quote these reprs and stay byte-stable.
        scalars = {k: v for k, v in sorted(self.attrs.items())
                   if type(v) in (str, int, float, bool, tuple)}
        return "<%s site=%s t=%.7f %s>" % (
            self.kind, self.site_id, self.ts, scalars)


class _Monitor:
    """Base: subclasses declare ``handlers`` mapping event kinds to
    bound-method names."""

    handlers = {}

    def __init__(self, hub):
        self.hub = hub

    def violation(self, check, message, events=(), site=None):
        self.hub._violation(check, message, events, site)

    def finish(self):
        pass


# ----------------------------------------------------------------------
# 2PC
# ----------------------------------------------------------------------

class TwoPhaseMonitor(_Monitor):
    """Safety and (post-run) liveness of the commit protocol."""

    handlers = {
        "2pc.vote": "_on_vote",
        "2pc.decide": "_on_decide",
        "2pc.deliver": "_on_deliver",
        "site.crash": "_on_crash",
        "net.partition": "_on_partition",
    }

    def __init__(self, hub):
        super().__init__(hub)
        self.votes = {}        # tid -> {site: (vote, event)}
        self.decisions = {}    # tid -> (decision, event)
        self.delivered = {}    # tid -> {site: {decision: event}}
        self.coordinator = {}  # tid -> coordinator site
        self.crashed = set()   # sites that ever crashed
        self.separated = set() # frozenset({a, b}) pairs ever partitioned

    def _on_vote(self, ev):
        tid, vote = ev.get("tid"), ev.get("vote")
        self.votes.setdefault(tid, {})[ev.site_id] = (vote, ev)
        if ev.get("coordinator") is not None:
            self.coordinator[tid] = ev.get("coordinator")
        if vote == "no":
            decided = self.decisions.get(tid)
            if decided is not None and decided[0] == "commit":
                self.violation(
                    "2pc.commit_after_no",
                    "txn %s voted NO at site %s after COMMIT was decided"
                    % (tid, ev.site_id),
                    [decided[1], ev], site=ev.site_id)

    def _on_decide(self, ev):
        tid, decision = ev.get("tid"), ev.get("decision")
        prior = self.decisions.get(tid)
        if prior is not None and prior[0] != decision:
            self.violation(
                "2pc.conflicting_decision",
                "txn %s decided %s after %s" % (tid, decision, prior[0]),
                [prior[1], ev], site=ev.site_id)
        self.decisions.setdefault(tid, (decision, ev))
        if decision == "commit":
            self._check_commit_vs_votes(tid, ev)

    def _on_deliver(self, ev):
        tid, decision = ev.get("tid"), ev.get("decision")
        per_site = self.delivered.setdefault(tid, {}).setdefault(
            ev.site_id, {})
        other = "abort" if decision == "commit" else "commit"
        if other in per_site:
            self.violation(
                "2pc.conflicting_decision",
                "site %s applied both COMMIT and ABORT for txn %s"
                % (ev.site_id, tid),
                [per_site[other], ev], site=ev.site_id)
        per_site.setdefault(decision, ev)
        decided = self.decisions.get(tid)
        if decided is not None and decided[0] != decision:
            self.violation(
                "2pc.conflicting_decision",
                "txn %s delivered %s at site %s but coordinator decided %s"
                % (tid, decision, ev.site_id, decided[0]),
                [decided[1], ev], site=ev.site_id)
        if decision == "commit":
            self._check_commit_vs_votes(tid, ev)

    def _check_commit_vs_votes(self, tid, ev):
        for site, (vote, vote_ev) in sorted(self.votes.get(tid, {}).items()):
            if vote == "no":
                self.violation(
                    "2pc.commit_after_no",
                    "COMMIT for txn %s despite NO vote from site %s"
                    % (tid, site),
                    [vote_ev, ev], site=ev.site_id)

    def _on_crash(self, ev):
        self.crashed.add(ev.site_id)

    def _on_partition(self, ev):
        groups = ev.get("groups") or ()
        for i, group_a in enumerate(groups):
            for group_b in groups[i + 1:]:
                for a in group_a:
                    for b in group_b:
                        self.separated.add(frozenset((a, b)))

    def _waived(self, site, coordinator):
        if site in self.crashed or coordinator in self.crashed:
            return True
        return frozenset((site, coordinator)) in self.separated

    def finish(self):
        """Liveness: every YES voter of a committed txn saw the
        decision, unless crash/partition legality waives it."""
        for tid, (decision, decide_ev) in sorted(
                self.decisions.items(), key=lambda kv: str(kv[0])):
            if decision != "commit":
                continue
            coordinator = self.coordinator.get(tid)
            got = self.delivered.get(tid, {})
            for site, (vote, vote_ev) in sorted(
                    self.votes.get(tid, {}).items()):
                if vote != "yes":
                    continue  # NO aborts; READ_ONLY is dropped from phase 2
                if "commit" in got.get(site, {}):
                    continue
                if self._waived(site, coordinator):
                    continue
                self.violation(
                    "2pc.lost_decision",
                    "txn %s committed but YES-voter site %s never received "
                    "the decision (coordinator %s alive, no partition)"
                    % (tid, site, coordinator),
                    [vote_ev, decide_ev], site=site)


# ----------------------------------------------------------------------
# locking
# ----------------------------------------------------------------------

class LockMonitor(_Monitor):
    """Cross-checks every grant instant against the live lock table."""

    handlers = {"lock.grant": "_on_grant"}

    def _on_grant(self, ev):
        table = ev.get("table")
        if table is None:  # offline replay: no live table to audit
            return
        start, end = ev.get("start"), ev.get("end")
        for rec_a, rec_b in table.conflicting_pairs(start, end):
            self.violation(
                "lock.conflicting_grant",
                "%s: %s %s and %s %s both live on overlapping ranges of "
                "file %s [%s, %s)" % (
                    ev.get("role", "storage"),
                    rec_a.holder, rec_a.mode.name,
                    rec_b.holder, rec_b.mode.name,
                    ev.get("file_id"), start, end),
                [ev], site=ev.site_id)


# ----------------------------------------------------------------------
# leases
# ----------------------------------------------------------------------

class LeaseMonitor(_Monitor):
    """Lease-local grants covered by live leases; recalls lose nothing."""

    handlers = {
        "lease.grant": "_on_grant",
        "lease.renew": "_on_renew",
        "lease.mirror": "_on_mirror",
        "lease.surrender": "_on_surrender",
        "lease.drop": "_on_drop",
        "lock.grant": "_on_lock_grant",
        "site.crash": "_on_crash",
    }

    def __init__(self, hub):
        super().__init__(hub)
        # (file_id, using_site) -> {"ranges": [(lo,hi)], "expiry": t,
        #                           "storage": site, "event": ev}
        self.leases = {}
        # (file_id, using_site) -> {holder: RangeSet} mirrored at storage
        self.mirrored = {}

    def _on_grant(self, ev):
        key = (ev.get("file_id"), ev.get("using_site"))
        lease = self.leases.setdefault(
            key, {"ranges": [], "storage": ev.site_id})
        lease["ranges"].append((ev.get("lo"), ev.get("hi")))
        lease["expiry"] = ev.get("expiry")
        lease["storage"] = ev.site_id
        lease["event"] = ev

    def _on_renew(self, ev):
        key = (ev.get("file_id"), ev.get("using_site"))
        lease = self.leases.get(key)
        if lease is not None:
            lease["expiry"] = max(lease.get("expiry", 0.0),
                                  ev.get("expiry", 0.0))

    def _on_mirror(self, ev):
        from repro.rangeset import RangeSet

        key = (ev.get("file_id"), ev.site_id)
        holders = self.mirrored.setdefault(key, {})
        held = holders.setdefault(ev.get("holder"), RangeSet())
        held.add(ev.get("lo"), ev.get("hi"))

    def _on_lock_grant(self, ev):
        if ev.get("role") != "lease":
            return
        key = (ev.get("file_id"), ev.site_id)
        lease = self.leases.get(key)
        start, end = ev.get("start"), ev.get("end")
        if lease is None or not self._covers(lease["ranges"], start, end):
            self.violation(
                "lease.uncovered_grant",
                "lease-local grant on file %s [%s, %s) at site %s without "
                "a covering lease" % (ev.get("file_id"), start, end,
                                      ev.site_id),
                [ev] + ([lease["event"]] if lease else []), site=ev.site_id)
            return
        if lease.get("expiry") is not None and ev.ts > lease["expiry"]:
            self.violation(
                "lease.expired_grant",
                "lease-local grant on file %s [%s, %s) at site %s at "
                "t=%.7f after lease expiry t=%.7f"
                % (ev.get("file_id"), start, end, ev.site_id, ev.ts,
                   lease["expiry"]),
                [lease["event"], ev], site=ev.site_id)

    @staticmethod
    def _covers(ranges, start, end):
        from repro.rangeset import RangeSet

        covered = RangeSet()
        for lo, hi in ranges:
            covered.add(lo, hi)
        return not RangeSet.single(start, end).difference(covered)

    def _on_surrender(self, ev):
        from repro.rangeset import RangeSet

        file_id, site = ev.get("file_id"), ev.site_id
        key = (file_id, site)
        table = ev.get("table")
        if table is not None:
            known = self.mirrored.get(key, {})
            shipped = {}
            for holder, _mode, _nontrans, novel, retained in \
                    ev.get("records", ()):
                runs = shipped.setdefault(holder, RangeSet())
                for lo, hi in tuple(novel) + tuple(retained):
                    runs.add(lo, hi)
            for rec in table.records():
                needed = rec.ranges.union(rec.retained).difference(
                    known.get(rec.holder, RangeSet()))
                lost = needed.difference(shipped.get(rec.holder, RangeSet()))
                if lost:
                    self.violation(
                        "lease.recall_lost_state",
                        "recall of file %s at site %s ships neither mirror "
                        "nor record for %s ranges %s"
                        % (file_id, site, rec.holder, lost.runs),
                        [ev], site=site)
        self.leases.pop(key, None)
        self.mirrored.pop(key, None)

    def _on_drop(self, ev):
        key = (ev.get("file_id"), ev.site_id)
        self.leases.pop(key, None)
        self.mirrored.pop(key, None)

    def _on_crash(self, ev):
        # A crashed using site loses its cache; a crashed storage site
        # loses its registry (using sites drop via lease.drop events).
        for key in [k for k, lease in self.leases.items()
                    if k[1] == ev.site_id
                    or lease.get("storage") == ev.site_id]:
            self.leases.pop(key, None)
            self.mirrored.pop(key, None)
        for key in [k for k in self.mirrored if k[1] == ev.site_id]:
            self.mirrored.pop(key, None)


# ----------------------------------------------------------------------
# WAL / no-steal
# ----------------------------------------------------------------------

class WalMonitor(_Monitor):
    """Committed bytes never regress, in the working page or on disk."""

    handlers = {
        "wal.commit": "_on_commit",
        "wal.recover": "_on_recover",
        "wal.abort": "_on_abort",
        "wal.checkpoint": "_on_checkpoint",
    }

    def __init__(self, hub):
        super().__init__(hub)
        # id(wal) -> {"wal": wal, "pages": {page: {offset: byte}},
        #             "event": last model-building event}
        # The strong reference pins the WalFile so CPython cannot reuse
        # its id() for a successor after a crash rebuilds the volume.
        self.models = {}

    def _model(self, wal):
        entry = self.models.get(id(wal))
        if entry is None or entry["wal"] is not wal:
            entry = self.models[id(wal)] = {"wal": wal, "pages": {}}
        return entry

    def _on_commit(self, ev):
        wal = ev.get("wal")
        if wal is None:
            return
        entry = self._model(wal)
        entry["event"] = ev
        for rec in ev.get("records", ()):
            page = entry["pages"].setdefault(rec["page_index"], {})
            lo, after = rec["lo"], rec["after"]
            for i, byte in enumerate(after):
                page[lo + i] = byte

    def _on_recover(self, ev):
        wal = ev.get("wal")
        if wal is None:
            return
        entry = self._model(wal)
        entry["event"] = ev
        entry["pages"] = {}
        for rec in ev.get("records", ()):
            page = entry["pages"].setdefault(rec["page_index"], {})
            lo, after = rec["lo"], rec["after"]
            for i, byte in enumerate(after):
                page[lo + i] = byte

    def _on_abort(self, ev):
        """The restore must not clobber committed bytes inside the
        aborted owner's restored ranges (the PR 1 bug, continuously)."""
        wal = ev.get("wal")
        entry = self.models.get(id(wal)) if wal is not None else None
        if entry is None or entry["wal"] is not wal:
            return
        restored = ev.get("restored") or {}
        for page_index, runs in sorted(restored.items()):
            model = entry["pages"].get(page_index)
            if not model:
                continue
            working = wal._pages.get(page_index)
            for lo, hi in runs:
                bad = [off for off in range(lo, hi)
                       if off in model
                       and (working is None or working[off] != model[off])]
                if bad:
                    self.violation(
                        "wal.committed_regressed",
                        "abort of %s restored page %d [%d, %d) over "
                        "committed bytes at offsets %s"
                        % (ev.get("owner"), page_index, lo, hi, bad[:8]),
                        [entry.get("event"), ev], site=ev.site_id)

    def _on_checkpoint(self, ev):
        """Every committed byte must be durable on disk afterwards."""
        wal = ev.get("wal")
        entry = self.models.get(id(wal)) if wal is not None else None
        if entry is None or entry["wal"] is not wal:
            return
        volume = wal._volume
        inode = volume.inode(wal.ino)
        for page_index, model in sorted(entry["pages"].items()):
            if not model:
                continue
            block = inode.block_for(page_index)
            durable = volume.disk.peek(block) if block is not None else None
            bad = [off for off, byte in sorted(model.items())
                   if durable is None or durable[off] != byte]
            if bad:
                self.violation(
                    "wal.committed_regressed",
                    "checkpoint left committed bytes of page %d "
                    "(block %s) stale on disk at offsets %s"
                    % (page_index, block, bad[:8]),
                    [entry.get("event"), ev], site=ev.site_id)


# ----------------------------------------------------------------------
# the hub
# ----------------------------------------------------------------------

#: The coordinator's decision a ``txn.state`` transition announces.
_DECISIONS = {TxnState.COMMITTED: "commit", TxnState.ABORTING: "abort"}


class MonitorHub:
    """The monitors' subscriptions; records violations.

    ``obs`` is the owning :class:`~repro.obs.Observability` (None for
    offline trace replay -- then violations are recorded but never
    raised, and no markers/counters are emitted).  ``strict=True``
    raises :class:`MonitorViolation` at the offending instant.
    """

    MONITORS = (TwoPhaseMonitor, LockMonitor, LeaseMonitor, WalMonitor)

    def __init__(self, obs=None, strict=False):
        self.obs = obs
        self.strict = strict and obs is not None
        self.monitors = [cls(self) for cls in self.MONITORS]
        self.violations = []       # bounded sample of violation dicts
        self.violation_counts = {} # check -> total count
        self.events_seen = 0
        self.finished = False

    # -- feeding --------------------------------------------------------

    def subscriptions(self):
        """Per kind, the ``events_seen`` count, then each monitor's
        handler; ``txn.state`` is re-announced as the ``2pc.decide``
        offline replay reads from a trace."""
        subs = [("txn.state", self._on_txn_state)]
        subs.extend((kind, self._seen) for kind in self.kinds())
        for monitor in self.monitors:
            subs.extend((kind, getattr(monitor, method))
                        for kind, method in monitor.handlers.items())
        return subs

    def kinds(self):
        return sorted({kind for m in self.monitors for kind in m.handlers})

    def _seen(self, _ev):
        self.events_seen += 1

    def _on_txn_state(self, ev):
        decision = _DECISIONS.get(ev.get("state"))
        if decision is not None:
            self.obs.event("2pc.decide", site_id=ev.site_id,
                           tid=ev.get("txn").tid, decision=decision)

    def finish(self):
        """Run end-of-run (liveness) checks; idempotent.  Skipped in
        offline mode, where crash/partition history is unavailable."""
        if self.finished:
            return
        self.finished = True
        if self.obs is None:
            return
        for monitor in self.monitors:
            monitor.finish()

    # -- violations -----------------------------------------------------

    def _violation(self, check, message, events, site):
        obs = self.obs
        ts = obs.engine.now if obs is not None else (
            events[-1].ts if events else 0.0)
        self.violation_counts[check] = self.violation_counts.get(check, 0) + 1
        if len(self.violations) < _SECTION_SAMPLE:
            self.violations.append({
                "check": check,
                "site": None if site is None else str(site),
                "ts": ts,
                "message": message,
                "events": [repr(ev) for ev in events if ev is not None][:6],
            })
        if obs is not None:
            obs.spans.instant("monitor.violation", site_id=site,
                              check=check, message=message)
            obs.incr(site, "monitor.violations." + check)
            # Pin the offending transaction's trace: the tail sampler
            # must retain every monitor-violating tree (no-op unsampled).
            obs.spans.mark_trace()
        if self.strict:
            raise MonitorViolation(check, message,
                                   [ev for ev in events if ev is not None])

    @property
    def total_violations(self):
        return sum(self.violation_counts.values())

    def section(self):
        """The ``monitors`` report section (dict-addressable for
        ``analysis/diff.py`` thresholds, e.g.
        ``monitors.total_violations==0``)."""
        return {
            "strict": self.strict,
            "events": self.events_seen,
            "checks": self.kinds(),
            "total_violations": self.total_violations,
            "violation_counts": dict(sorted(self.violation_counts.items())),
            "violations": list(self.violations),
        }


# ----------------------------------------------------------------------
# offline replay
# ----------------------------------------------------------------------

_US = 1e6


def events_from_trace(doc):
    """Reconstruct the 2PC monitor event stream from a Chrome-trace
    document (the ``traceEvents`` written by :func:`to_chrome_trace`).

    Span-to-event mapping (the span attrs are written by
    ``core/twophase.py`` precisely so traces stay auditable):

    * ``2pc.prepare`` ('X') -> ``2pc.vote`` using its ``vote`` attr
      (``status: failed`` means a NO vote);
    * ``2pc`` ('X') with status ``committed``/``aborted`` ->
      ``2pc.decide`` at the span's *end* timestamp (the commit point);
    * ``2pc.apply`` / ``2pc.abort`` ('X') -> ``2pc.deliver``.

    Returns ``(events, markers)`` where events are
    ``(ts, kind, site, attrs)`` tuples sorted by timestamp and markers
    counts ``monitor.violation`` instants already present in the trace.
    """
    events = []
    markers = 0
    for entry in doc.get("traceEvents", ()):
        phase, name = entry.get("ph"), entry.get("name")
        if phase == "i" and name == "monitor.violation":
            markers += 1
            continue
        if phase != "X":
            continue
        args = entry.get("args", {})
        site = entry.get("pid")
        start = entry.get("ts", 0) / _US
        end = start + entry.get("dur", 0) / _US
        tid = args.get("tid")
        if tid is None:
            continue
        if name == "2pc.prepare":
            vote = args.get("vote")
            if vote is None:
                vote = "no" if args.get("status") == "failed" else "yes"
            events.append((end, "2pc.vote", site, {
                "tid": tid, "vote": vote,
                "coordinator": args.get("coordinator"),
            }))
        elif name == "2pc":
            status = args.get("status")
            if status in ("committed", "aborted"):
                decision = "commit" if status == "committed" else "abort"
                events.append((end, "2pc.decide", site,
                               {"tid": tid, "decision": decision}))
        elif name == "2pc.apply":
            events.append((end, "2pc.deliver", site,
                           {"tid": tid, "decision": "commit"}))
        elif name == "2pc.abort":
            events.append((end, "2pc.deliver", site,
                           {"tid": tid, "decision": "abort"}))
    events.sort(key=lambda e: (e[0], e[1], str(e[2])))
    return events, markers


def replay_trace(doc, strict=False):
    """Replay a Chrome-trace document through an offline
    :class:`MonitorHub`, announced on an event stream that runs on the
    trace's own timestamps (no engine); returns ``(hub, markers)``."""
    from types import SimpleNamespace

    from . import Observability

    clock = SimpleNamespace(now=0.0)  # the engine stand-in: event time
    stream = Observability(clock)
    hub = MonitorHub(obs=None, strict=strict)
    stream.subscribe("monitors", hub.subscriptions())
    events, markers = events_from_trace(doc)
    for ts, kind, site, attrs in events:
        clock.now = ts
        stream.event(kind, site_id=site, **attrs)
    hub.finish()
    return hub, markers
