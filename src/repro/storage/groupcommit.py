"""Group commit: amortizing concurrent log forces at one disk.

The paper's Figure 5 analysis charges every committing transaction its
own log-page (and, unoptimized, log-inode) write, serialized through a
26 ms disk arm.  Classic group commit observes that concurrent forces of
the *same* log device need not each pay a physical I/O: while one force
is in flight, later arrivals queue behind it and are written together as
one batch page, so N concurrent commits cost ~1-2 physical log I/Os.

A :class:`GroupCommitScheduler` fronts one disk's log traffic.  A caller
(:class:`~repro.storage.logfile.LogFile`) hands over the blocks it would
have written and waits; a pump process drains *forming batches*:

* a batch with a single member is written exactly as the caller would
  have written it (same blocks, same categories, same I/O count), so a
  lone commit pays the unbatched price;
* a batch with several members pays **one** physical log-page write
  (plus one log-inode write if any member runs the unoptimized footnote-9
  design), and every member's own blocks are *absorbed*: installed on
  the disk and counted as logical, coalesced I/Os
  (:meth:`~repro.storage.disk.Disk.absorb_block`), keeping Figure-5-style
  I/O accounting exact.

Durability contract: ``force`` returns only after the physical write(s)
for the member's batch complete.  Callers append their in-core durable
record *after* force returns, so a crash that kills a waiting process
can only lose an entry whose force had not finished -- never a
transaction past its commit point.

The pump never lingers: a batch holds exactly the forces that arrived
while the previous write was in flight (pure piggybacking, no added
latency).  Phase-2 coalescing (:mod:`repro.locus.batching`) runs on the
same :class:`PiggybackPump`, with a commit message as its send.
"""

from __future__ import annotations

from .disk import IOCategory

__all__ = ["GroupCommitScheduler", "PiggybackPump"]


class PiggybackPump:
    """Whatever arrives while a send is in flight leaves together in the
    next send.  ``send(members)`` is a generator doing one batch's work;
    the batch's completion event succeeds when it returns, or fails
    every member with the error it raised.  ``spawn`` starts the drain."""

    def __init__(self, engine, spawn, send, name):
        self._engine = engine
        self._spawn = spawn
        self._send = send
        self._name = name
        self._forming = None         # (members, completion event)
        self._pump = None            # drain process while any work queued

    def join(self, member):
        """Add ``member`` to the forming batch, starting the drain if it
        is idle; returns the event that completes with its send."""
        if self._forming is None:
            self._forming = ([], self._engine.event())
        members, done = self._forming
        members.append(member)
        if self._pump is None:
            self._pump = self._spawn(self._drain(), self._name)
        return done

    def _drain(self):
        """Generator (pump process): send forming batches until none
        remain.  Arrivals during a send collect into the next batch --
        that overlap is the whole mechanism.  Killed by a crash, the
        drain drops the forming batch: its members died with it."""
        try:
            while self._forming is not None:
                (members, done), self._forming = self._forming, None
                try:
                    yield from self._send(members)
                except Exception as exc:  # noqa: BLE001 - the members' error
                    done.fail(exc)
                else:
                    done.succeed()
        finally:
            self._pump = self._forming = None


class GroupCommitScheduler:
    """Per-disk log-force batcher (see module docstring)."""

    def __init__(self, engine, disk, spawn, site=None):
        self._engine = engine
        self._disk = disk
        self._site = site            # observability attribution only
        self._pump = PiggybackPump(engine, spawn, self._write,
                                   "groupcommit@%s" % disk.name)
        self._batch_seq = 0

    def force(self, blocks):
        """Generator: durably write ``blocks`` (``(block_no, data,
        category)`` triples), sharing the physical write with any other
        force in flight at this disk.  Returns after the covering batch
        is on disk."""
        done = self._pump.join(list(blocks))
        obs = self._engine.obs
        # The member's wait for its covering batch: the critical-path
        # extractor blames this window on group commit rather than on
        # whatever span happens to enclose the force.
        span = obs.span("groupcommit.wait", self._site, self._disk.name)
        try:
            yield done
        finally:
            obs.end(span)

    def _write(self, members):
        """Generator: one batch's physical write(s)."""
        if len(members) == 1:
            # Solo force: identical blocks, categories, and I/O count to
            # the unbatched path.
            for block_no, data, category in members[0]:
                yield from self._disk.write_block(block_no, data, category)
            return
        obs = self._engine.obs
        span = obs.span("groupcommit.batch", self._site, self._disk.name,
                        len(members))
        seq = self._batch_seq
        self._batch_seq += 1
        yield from self._disk.write_block(
            ("log-batch", self._disk.name, seq), b"", IOCategory.LOG_WRITE)
        if any(category == IOCategory.LOG_INODE_WRITE
               for member in members for (_b, _d, category) in member):
            # Footnote 9 honesty: if any member runs the unoptimized
            # design, the batch grows a log and pays the inode write
            # once -- not once each.
            yield from self._disk.write_block(
                ("log-batch-inode", self._disk.name, seq), b"",
                IOCategory.LOG_INODE_WRITE)
        for member in members:
            for block_no, data, category in member:
                self._disk.absorb_block(block_no, data, category)
        obs.incr(self._site, "commit.group.batched", len(members))
        obs.end(span)
