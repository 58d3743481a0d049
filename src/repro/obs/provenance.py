"""Abort provenance: *why* each transaction died, not just how many.

The 2PL + 2PC stack resolves conflicts by killing transactions --
deadlock victims, lock-wait timeouts, RPC timeouts, crashes, explicit
AbortTrans calls -- but the metrics only count the bodies.  This module
classifies every abort **at the instant it happens** with a causal
:class:`AbortRecord`:

* ``deadlock`` -- chosen as a deadlock victim; the record carries the
  full wait-for cycle membership, the ordered cycle edges with their
  (site, file, byte-range) contention points, and the *closing* edge
  (the most recently queued wait that completed the cycle);
* ``lock_timeout`` -- a lock wait exceeded ``SystemConfig.lock_timeout``;
  the record carries the blocking holders and the (site, file, range)
  they held;
* ``rpc_timeout`` -- connectivity loss: a commit-protocol RPC timed
  out, a participant became unreachable, or a partition (topology
  change) cut the transaction off -- the peer may be healthy, all we
  know is we could not reach it;
* ``crash`` -- a site or process failure took the transaction down
  (site crash, member process failure, reboot-time recovery);
* ``explicit`` -- the application called AbortTrans.

Records are **first-write-wins per tid**: the richest announcements
(``deadlock.scan``, ``lock.timeout``, ``2pc.prepare_failed``) come
before the abort they explain starts, so they record first with full
detail, and the lifecycle funnel (``txn.state`` -> ABORTED) backstops
with a reason-string classification so *every* abort carries exactly
one cause -- the invariant ``python -m repro.obs.lint`` enforces.
Client retry loops announce their attempts (``chain.*``), making
retries-per-success and retry-storm bursts (peak aborts in any fixed
virtual-time window) first-class metrics.
"""

from __future__ import annotations

from repro.core import TxnState
from repro.net import RpcError

from .deadlock import cycle_edges

__all__ = [
    "CAUSES",
    "AbortRecord",
    "ProvenanceHub",
    "classify_reason",
]

#: The closed cause taxonomy.  Every abort maps to exactly one.
CAUSES = ("deadlock", "lock_timeout", "rpc_timeout", "crash", "explicit")

#: Virtual-time width of the retry-storm detection window (seconds).
STORM_WINDOW = 1.0


def classify_reason(reason) -> str:
    """Map a ``TxnRecord.abort_reason`` string onto the cause taxonomy.

    This is the *backstop* classifier used when no instrumentation site
    recorded a richer cause first; the strings matched here are the
    exact reasons produced by the abort call sites across the stack
    (transaction.py, twophase.py, cluster.py, kernel.py, recovery.py).
    """
    if reason is None:
        return "crash"
    text = str(reason)
    if "deadlock" in text:
        return "deadlock"
    if "lock wait timeout" in text:
        return "lock_timeout"
    if "AbortTrans" in text:
        return "explicit"
    if "timeout" in text or "timed out" in text or "unreachable" in text \
            or "no reply from site" in text or "topology change" in text \
            or "partition" in text:
        # Connectivity loss: the peer may be perfectly healthy on the
        # far side of a partition -- all we know is we could not reach
        # it, which is the rpc_timeout story, not the crash story.
        return "rpc_timeout"
    # crashes, member/process failures, reboot-time recovery --
    # everything where a machine (or process) actually went away.
    return "crash"


class AbortRecord:
    """One abort's causal record."""

    __slots__ = ("tid", "cause", "reason", "time", "site", "mix",
                 "trace_id", "detail", "chain", "attempt")

    def __init__(self, tid, cause, reason, time, site, mix, trace_id,
                 detail):
        self.tid = tid
        self.cause = cause
        self.reason = reason
        self.time = time
        self.site = site
        self.mix = mix
        self.trace_id = trace_id
        self.detail = detail     # cause-specific payload (cycle, holders..)
        self.chain = None        # retry-chain key, joined at section time
        self.attempt = None      # 0-based attempt index within the chain

    def __repr__(self):
        return "<AbortRecord tid=%s cause=%s at %s>" % (
            self.tid, self.cause, self.time)


class ProvenanceHub:
    """Per-engine abort-provenance recorder (attach via
    ``Observability.attach_provenance()``)."""

    def __init__(self, obs):
        self.obs = obs
        self.records = []        # AbortRecord, in record order
        self.by_tid = {}         # tid -> AbortRecord (first write wins)
        self._chains = {}        # chain key -> [tid, ...] current attempts
        self._successes = []     # (chain, attempts_used, commit_tid, time)
        self._abandoned = []     # (chain, attempts_used) given up on

    def __len__(self):
        return len(self.records)

    def subscriptions(self):
        return (
            ("deadlock.scan", self._on_deadlock),
            ("lock.timeout", self._on_lock_timeout),
            ("2pc.prepare_failed", self._on_prepare_failed),
            ("txn.state", self._on_txn_state),
            ("chain.attempt", self._on_attempt),
            ("chain.commit", self._on_chain_commit),
            ("chain.abandon", self._on_abandon),
        )

    def _on_deadlock(self, ev):
        """The victim, with the cycle's edges and its *closing* edge."""
        victim = ev.get("victim")
        if victim is None or victim[0] != "txn":
            return
        txn = ev.get("txns").get(victim[1])
        if txn is None or txn.is_finished():
            return
        ordered, closing = cycle_edges(ev)
        self._record_txn(
            txn, "deadlock", "deadlock victim", txn.top_proc.site_id,
            cycle=["%s:%s" % h for h in ev.get("cycle")],
            edges=[list(e[:6]) for e in ordered],
            closing=None if closing is None else list(closing[:6]),
        )

    def _on_lock_timeout(self, ev):
        """The contention point and the holders that blocked the wait."""
        self._record_txn(
            ev.get("txn"), "lock_timeout", ev.get("reason"), ev.site_id,
            file=str(ev.get("file_id")), start=ev.get("start"),
            end=ev.get("end"), lock_site=ev.get("lock_site"),
            blockers=["%s:%s" % b for b in ev.get("blockers")],
        )

    def _on_prepare_failed(self, ev):
        """An unanswered prepare is an RPC timeout; anything else a crash."""
        error = ev.get("error")
        cause = ("rpc_timeout"
                 if isinstance(error, RpcError) and "no reply" in str(error)
                 else "crash")
        txn = ev.get("txn")
        self._record_txn(txn, cause, txn.abort_reason, ev.site_id,
                         phase="prepare", participants=ev.get("participants"))

    def _on_txn_state(self, ev):
        """Lifecycle funnel backstop for a transaction entering ABORTED:
        a no-op when a richer announcement already recorded the tid;
        otherwise classifies from the abort reason string, so every
        abort ends up with exactly one cause."""
        if ev.get("state") != TxnState.ABORTED:
            return
        txn = ev.get("txn")
        span = txn.obs_span
        site = None if span is None else span.site_id
        if site is None:
            site = txn.top_proc.site_id
        self._record_txn(txn, classify_reason(txn.abort_reason),
                         txn.abort_reason, site)

    # -- recording ------------------------------------------------------

    def _record_txn(self, txn, cause, reason, site, **detail):
        span = txn.obs_span
        return self.record(txn.tid, cause, reason=reason, site=site,
                           mix=txn.mix,
                           trace_id=None if span is None else span.trace_id,
                           **detail)

    def record(self, tid, cause, reason=None, site=None, mix=None,
               trace_id=None, time=None, **detail):
        """Classify one abort; first write for a tid wins (later calls
        return the existing record untouched).  Emits an
        ``abort.provenance`` instant so the cause rides along in every
        exported Chrome trace."""
        existing = self.by_tid.get(tid)
        if existing is not None:
            return existing
        if cause not in CAUSES:
            raise ValueError("unknown abort cause %r" % (cause,))
        if time is None:
            time = self.obs.engine.now
        rec = AbortRecord(tid, cause, reason, time, site, mix, trace_id,
                          dict(detail) if detail else {})
        self.by_tid[tid] = rec
        self.records.append(rec)
        attrs = {"tid": tid, "cause": cause}
        if reason is not None:
            attrs["reason"] = str(reason)
        if trace_id is not None:
            attrs["trace"] = trace_id
        for key, value in rec.detail.items():
            attrs[key] = value
        self.obs.spans.instant("abort.provenance", site_id=site, **attrs)
        return rec

    # -- retry chaining -------------------------------------------------

    def _on_attempt(self, ev):
        """A client retry loop started (another) attempt ``tid`` of the
        logical operation identified by ``chain``."""
        self._chains.setdefault(ev.get("chain"), []).append(ev.get("tid"))

    def _on_chain_commit(self, ev):
        """The chain's last attempt committed: close the chain."""
        chain = ev.get("chain")
        tids = self._chains.pop(chain, None)
        if tids:
            self._successes.append((chain, tids, tids[-1], ev.ts))

    def _on_abandon(self, ev):
        """The client gave up on the chain (retry budget exhausted)."""
        chain = ev.get("chain")
        tids = self._chains.pop(chain, None)
        if tids is not None:
            self._abandoned.append((chain, tids))

    def _join_chains(self):
        """Stamp chain/attempt onto the abort records of every chained
        attempt (the committed tid has no abort record, by definition)."""
        for chain, tids, _commit_tid, _t in self._successes:
            for idx, tid in enumerate(tids):
                rec = self.by_tid.get(tid)
                if rec is not None and rec.chain is None:
                    rec.chain = chain
                    rec.attempt = idx
        for chain, tids in list(self._abandoned) + list(self._chains.items()):
            for idx, tid in enumerate(tids):
                rec = self.by_tid.get(tid)
                if rec is not None and rec.chain is None:
                    rec.chain = chain
                    rec.attempt = idx

    # -- aggregation ----------------------------------------------------

    def cause_counts(self) -> dict:
        counts = {}
        for rec in self.records:
            counts[rec.cause] = counts.get(rec.cause, 0) + 1
        return dict(sorted(counts.items()))

    def dominant_cause(self):
        """The most frequent cause (ties broken alphabetically), or
        None when nothing aborted."""
        counts = self.cause_counts()
        if not counts:
            return None
        return sorted(counts, key=lambda c: (-counts[c], c))[0]

    def storm(self, window=STORM_WINDOW) -> dict:
        """Peak aborts in any fixed ``window`` of virtual time."""
        if not self.records:
            return {"window_s": window, "peak": 0, "at": 0.0}
        times = sorted(rec.time for rec in self.records)
        peak, at, lo = 0, times[0], 0
        for hi, t in enumerate(times):
            while times[lo] < t - window + 1e-12:
                lo += 1
            n = hi - lo + 1
            if n > peak:
                peak, at = n, times[lo]
        return {"window_s": window, "peak": peak, "at": at}

    def retry_stats(self) -> dict:
        self._join_chains()
        lengths = [len(tids) for _c, tids, _t, _tm in self._successes]
        successes = len(lengths)
        attempts = sum(lengths)
        return {
            "successes": successes,
            "retried_successes": sum(1 for n in lengths if n > 1),
            "attempts": attempts,
            "retries_per_success": (
                (attempts - successes) / successes if successes else 0.0
            ),
            "max_chain": max(lengths or [0]),
            "abandoned": len(self._abandoned) + len(self._chains),
        }

    def section(self) -> dict:
        """The ``aborts`` section of a ``repro.bench_report``
        document.  Deterministic; pure reader."""
        by_site = {}
        for rec in self.records:
            key = "-" if rec.site is None else str(rec.site)
            by_site[key] = by_site.get(key, 0) + 1
        return {
            "total": len(self.records),
            "causes": self.cause_counts(),
            "by_site": dict(sorted(by_site.items())),
            "retries": self.retry_stats(),
            "storm": self.storm(),
        }


def render_aborts_table(section) -> str:
    """Human-readable ``== aborts ==`` table for the report CLI."""
    lines = []
    total = section.get("total", 0)
    causes = section.get("causes", {})
    lines.append("%-14s %8s %8s" % ("cause", "count", "share"))
    lines.append("-" * 32)
    for cause in sorted(causes, key=lambda c: (-causes[c], c)):
        count = causes[cause]
        share = count / total if total else 0.0
        lines.append("%-14s %8d %7.1f%%" % (cause, count, 100.0 * share))
    if not causes:
        lines.append("%-14s %8d %8s" % ("(none)", 0, "-"))
    retries = section.get("retries", {})
    storm = section.get("storm", {})
    lines.append("")
    lines.append(
        "aborts=%d  retries/success=%.2f  max_chain=%d  abandoned=%d  "
        "storm_peak=%d/%gs" % (
            total, retries.get("retries_per_success", 0.0),
            retries.get("max_chain", 0), retries.get("abandoned", 0),
            storm.get("peak", 0), storm.get("window_s", STORM_WINDOW),
        ))
    return "\n".join(lines)
