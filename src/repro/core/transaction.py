"""Transaction lifecycle: BeginTrans / EndTrans / AbortTrans.

Semantics from section 2 of the paper:

* transactions are **simple-nested**: each process carries a nesting
  counter; BeginTrans increments it, EndTrans decrements, and only the
  process that *started* the transaction reaching zero triggers commit;
* every process created inside a transaction is a member (its locks and
  updates belong to the transaction) and inherits the transaction id;
* AbortTrans -- or the failure of *any* member process -- aborts the
  whole transaction (section 4.3), cascading down the process tree;
* a topology change aborts every ongoing transaction that involves a
  site no longer in the current partition, unless the transaction had
  already passed its commit point (section 4.3).
"""

from __future__ import annotations

from repro.locus.errors import TransactionAborted, TransactionError

from .ids import TransactionIdGenerator
from .twophase import abort_at_participants, run_two_phase_commit

__all__ = ["TxnRecord", "TxnRegistry", "TransactionService", "TxnState"]


class TxnState:
    """Transaction lifecycle states, in protocol order."""
    ACTIVE = "active"
    PREPARING = "preparing"
    COMMITTED = "committed"    # commit point passed; phase two may be in flight
    RESOLVED = "resolved"      # all participants acknowledged
    ABORTING = "aborting"
    ABORTED = "aborted"


class TxnRecord:
    """Cluster-wide bookkeeping for one transaction.

    The *protocol* state lives in logs and messages; this record is the
    observer's index of it (and what tests assert on).
    """

    def __init__(self, tid, top_proc, registry):
        self.tid = tid
        self.top_proc = top_proc
        self.members = {top_proc.pid: top_proc}
        # Workload-mix label carried from the starting process: keys the
        # per-mix latency sketches and SLO burn-rate accounting.
        self.mix = getattr(top_proc, "mix", None)
        # Assigned before ``state``: the state setter announces lifecycle
        # transitions through registry.engine.obs.
        self.registry = registry
        self.state = TxnState.ACTIVE
        self.coordinator_site = None
        self.participants = ()
        self.abort_reason = None
        self.commit_started_at = None
        self.obs_span = None  # root trace span (None unless observability is on)

    @property
    def state(self):
        return self._state

    @state.setter
    def state(self, value):
        """Every lifecycle transition funnels through here, so the state
        assignments scattered across the commit, abort and topology-
        change paths are announced once (``txn.state``) without each
        call site carrying instrumentation.  Every path into ABORTED
        assigns its abort reason first."""
        old = getattr(self, "_state", None)
        self._state = value
        if old == value:
            return
        self.registry.engine.obs.event(
            "txn.state", site_id=self.top_proc.site_id, txn=self, old=old,
            state=value)

    @property
    def holder(self):
        return ("txn", self.tid)

    def add_member(self, proc):
        """Record a newly forked process as a transaction member."""
        self.members[proc.pid] = proc

    def member_sites(self):
        """Sites currently hosting member processes."""
        return {p.site_id for p in self.members.values()}

    def files(self):
        """The merged file-list (section 4.1): (vol, ino, storage site)."""
        return set().union(*(p.file_list for p in self.members.values()))

    def is_finished(self):
        """Has the transaction reached a terminal state?"""
        return self.state in (TxnState.RESOLVED, TxnState.ABORTED)


class TxnRegistry:
    """Index of all transactions ever started (cluster-wide)."""

    def __init__(self, engine):
        self._by_tid = {}
        self.engine = engine  # lets records find obs

    def create(self, tid, top_proc) -> TxnRecord:
        """Register a new transaction under its top-level process."""
        rec = TxnRecord(tid, top_proc, registry=self)
        self._by_tid[tid] = rec
        return rec

    def get(self, tid) -> TxnRecord:
        """The record for ``tid``, or None."""
        return self._by_tid.get(tid)

    def active(self):
        """Transactions that have not yet resolved or aborted."""
        return [r for r in self._by_tid.values() if not r.is_finished()]

    def all(self):
        """Every transaction ever started, in creation order."""
        return list(self._by_tid.values())


class TransactionService:
    """Per-site backend for the transaction syscalls."""

    def __init__(self, site):
        self._site = site
        self._engine = site.engine
        self._cost = site.cost
        self._ids = TransactionIdGenerator(site.engine, site.site_id)

    @property
    def registry(self) -> TxnRegistry:
        return self._site.cluster.txn_registry

    # ------------------------------------------------------------------
    # syscall backends
    # ------------------------------------------------------------------

    def begin(self, proc):
        """Generator: BeginTrans."""
        yield self._engine.charge(self._cost.instr(self._cost.trans_begin_instr))
        proc.aborted_notice = None  # a fresh transaction supersedes it
        if proc.tid is None:
            tid = self._ids.next()
            proc.tid = tid
            proc.nesting = 1
            proc.is_txn_top_level = True
            proc.file_list = set()
            rec = self.registry.create(tid, proc)
            # Root of the causal trace: every syscall, lock wait, RPC,
            # and 2PC span of this transaction nests under it.
            attrs = {"tid": tid, "pid": proc.pid}
            if rec.mix is not None:
                attrs["mix"] = rec.mix
            rec.obs_span = self._engine.obs.span(
                "txn", site_id=proc.site_id, root=True, **attrs)
        else:
            proc.nesting += 1

    def end(self, proc):
        """Generator: EndTrans.  Returns True when this call completed
        the transaction (nesting reached zero at the top level)."""
        if proc.tid is None and proc.aborted_notice is not None:
            notice, proc.aborted_notice = proc.aborted_notice, None
            raise notice
        if proc.tid is None or proc.nesting <= 0:
            raise TransactionError("EndTrans without matching BeginTrans")
        proc.nesting -= 1
        if proc.nesting > 0 or not proc.is_txn_top_level:
            return False
        txn = self.registry.get(proc.tid)
        # Wait for every member process to complete (section 4.1: the
        # file-list merges as children finish; 4.2: commit begins when
        # all subprocesses have completed).
        yield from self._await_descendants(proc)
        if txn.state == TxnState.ABORTING or txn.state == TxnState.ABORTED:
            self._leave(proc)
            raise TransactionAborted(txn.tid, txn.abort_reason or "")
        failed = [p for p in proc.descendants() if p.failed]
        if failed:
            yield from self.abort(txn, reason="member process %d failed" % failed[0].pid)
            self._leave(proc)
            raise TransactionAborted(txn.tid, txn.abort_reason or "")
        # The process leaves the transaction whether the protocol
        # commits or aborts: a prepare failure raises TransactionAborted
        # out of the commit call, and without the finally the top-level
        # process would keep its dead tid -- a retrying caller's next
        # BeginTrans would then *nest* into the aborted transaction and
        # write under a tid participants may still hold prepared.
        try:
            if self._site.config.commit_protocol == "tree":
                from .treecommit import run_tree_commit

                yield from run_tree_commit(self._site, txn)
            else:
                yield from run_two_phase_commit(self._site, txn)
        finally:
            self._leave(proc)
        return True

    def abort_call(self, proc):
        """Generator: AbortTrans issued by a member process.  The caller
        survives and continues as a non-transaction process; every other
        member is torn down."""
        if proc.tid is None and proc.aborted_notice is not None:
            proc.aborted_notice = None  # already aborted: the intent holds
            return
        if proc.tid is None:
            raise TransactionError("AbortTrans outside a transaction")
        txn = self.registry.get(proc.tid)
        yield from self.abort(txn, reason="AbortTrans by pid %d" % proc.pid,
                              surviving=proc)
        self._leave(proc)

    def _await_descendants(self, proc):
        for child in list(proc.descendants()):
            if child.alive:
                yield child.exit_event

    def _leave(self, proc):
        if proc.tid is not None:
            # Requesting-site caches for the finished transaction are
            # garbage from here on (holder ids are never reused).
            holder = ("txn", proc.tid)
            site = self._site.cluster.site(proc.site_id)
            site.lock_list.drop_holder(holder)
            site.prefetch_cache.drop_holder(holder)
            if site.leases is not None:
                site.leases.leave(self.registry.get(proc.tid), holder)
        proc.tid = None
        proc.nesting = 0
        proc.is_txn_top_level = False

    # ------------------------------------------------------------------
    # abort machinery (section 4.3)
    # ------------------------------------------------------------------

    def abort(self, txn, reason="", surviving=None, skip_sites=()):
        """Generator: abort a transaction: interrupt members, roll back
        every participant site, record the outcome."""
        if txn.state in (TxnState.COMMITTED, TxnState.RESOLVED):
            raise TransactionError(
                "transaction %s already passed its commit point" % (txn.tid,)
            )
        if txn.state in (TxnState.ABORTING, TxnState.ABORTED):
            return
        txn.state = TxnState.ABORTING
        txn.abort_reason = reason
        # Tear down member processes, cascading down the tree from the
        # top-level process (section 4.3).
        victims = [txn.top_proc] + txn.top_proc.descendants()
        for proc in victims:
            if proc is surviving or not proc.alive:
                continue
            if proc.sim_proc is not None:
                proc.sim_proc.interrupt(TransactionAborted(txn.tid, reason))
            # The process may catch the notice and continue (a retrying
            # deadlock victim): it is no longer in any transaction, and
            # a pending EndTrans must report the abort.
            if proc.tid == txn.tid:
                proc.aborted_notice = TransactionAborted(txn.tid, reason)
                self._leave(proc)
        # Roll back updates and release locks at every involved site.
        sites = {e[2] for e in txn.files()}
        sites.update(txn.member_sites())
        sites.add(self._site.site_id)
        sites.difference_update(skip_sites)
        yield from abort_at_participants(self._site, txn.tid, sorted(sites))
        txn.state = TxnState.ABORTED
        self._engine.obs.end(txn.obs_span, status="aborted")
