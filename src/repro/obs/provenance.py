"""Abort provenance: *why* each transaction died, not just how many.

The 2PL + 2PC stack resolves conflicts by killing transactions --
deadlock victims, RPC timeouts, crashes, explicit AbortTrans calls --
but the metrics only count the bodies.  This module classifies every
abort **at the instant it happens** with a causal :class:`AbortRecord`:

* ``deadlock`` -- chosen as a deadlock victim; the record carries the
  full wait-for cycle membership, the ordered cycle edges with their
  (site, file, byte-range) contention points, and the *closing* edge
  (the most recently queued wait that completed the cycle).  A lock
  wait has no timer, as in the paper (section 3.1): a queued request
  ends only by grant or by cancellation, so a lock conflict aborts a
  transaction only as a deadlock victim;
* ``rpc_timeout`` -- connectivity loss: a commit-protocol RPC timed
  out, a participant became unreachable, or a partition (topology
  change) cut the transaction off -- the peer may be healthy, all we
  know is we could not reach it;
* ``crash`` -- a site or process failure took the transaction down
  (site crash, member process failure, reboot-time recovery).  A lost
  connection to a site that is down is a crash too, whichever
  announcement classifies it: one fault gets one cause;
* ``explicit`` -- the application called AbortTrans.

Records are **first-write-wins per tid**: the richest announcements
(``deadlock.scan``, ``2pc.prepare_failed``) come before the abort they
explain starts, so they record first with full detail, and the
lifecycle funnel (``txn.state`` -> ABORTED) backstops with a
reason-string classification so *every* abort carries exactly one
cause -- the invariant ``python -m repro.obs.lint`` enforces.
Client retry loops announce their attempts (``chain.*``), making
retries-per-success and retry-storm bursts (peak aborts in any fixed
virtual-time window) first-class metrics.
"""

from __future__ import annotations

from collections import Counter

from repro.core import TxnState

from .deadlock import cycle_edges

__all__ = [
    "CAUSES",
    "AbortRecord",
    "ProvenanceHub",
    "classify_reason",
]

#: The closed cause taxonomy.  Every abort maps to exactly one.
CAUSES = ("deadlock", "rpc_timeout", "crash", "explicit")

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
        self._down = set()       # sites crashed and not rebooted since

    def __len__(self):
        return len(self.records)

    def subscriptions(self):
        return (
            ("deadlock.scan", self._on_deadlock),
            ("2pc.prepare_failed", self._on_prepare_failed),
            ("txn.state", self._on_txn_state),
            ("site.crash", self._on_crash),
            ("site.recover", self._on_recover),
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

    def _on_prepare_failed(self, ev):
        """A failed prepare, with its participants, by :meth:`_cause`."""
        txn = ev.get("txn")
        self._record_txn(txn, self._cause(txn), txn.abort_reason, ev.site_id,
                         phase="prepare", participants=ev.get("participants"))

    def _on_txn_state(self, ev):
        """Lifecycle funnel backstop for a transaction entering ABORTED:
        a no-op when a richer announcement already recorded the tid;
        otherwise classifies it by :meth:`_cause`, so every abort ends
        up with exactly one cause."""
        if ev.get("state") != TxnState.ABORTED:
            return
        txn = ev.get("txn")
        span = txn.obs_span
        site = None if span is None else span.site_id
        if site is None:
            site = txn.top_proc.site_id
        self._record_txn(txn, self._cause(txn), txn.abort_reason, site)

    def _on_crash(self, ev):
        self._down.add(ev.site_id)

    def _on_recover(self, ev):
        self._down.discard(ev.site_id)

    def _cause(self, txn):
        """The one rule both classifiers apply: the abort reason's cause
        (:func:`classify_reason`), except that a lost connection to a
        site of the transaction that is down is the crash behind it --
        a partition leaves every site up, so it stays ``rpc_timeout``."""
        cause = classify_reason(txn.abort_reason)
        if cause == "rpc_timeout" and self._down:
            sites = (set(txn.participants or ()) | txn.member_sites()
                     | {entry[2] for entry in txn.files()})
            if sites & self._down:
                return "crash"
        return cause

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
        attrs.update(rec.detail)
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
        chains = [(chain, tids) for chain, tids, _tid, _t in self._successes]
        for chain, tids in chains + self._abandoned + list(self._chains.items()):
            for idx, tid in enumerate(tids):
                rec = self.by_tid.get(tid)
                if rec is not None and rec.chain is None:
                    rec.chain = chain
                    rec.attempt = idx

    # -- aggregation ----------------------------------------------------

    def cause_counts(self) -> dict:
        return dict(sorted(Counter(rec.cause for rec in self.records).items()))

    def dominant_cause(self):
        """The most frequent cause (ties broken alphabetically), or
        None when nothing aborted."""
        counts = self.cause_counts()
        return min(counts, key=lambda c: (-counts[c], c), default=None)

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
        by_site = Counter("-" if rec.site is None else str(rec.site)
                          for rec in self.records)
        return {
            "total": len(self.records),
            "causes": self.cause_counts(),
            "by_site": dict(sorted(by_site.items())),
            "retries": self.retry_stats(),
            "storm": self.storm(),
        }

