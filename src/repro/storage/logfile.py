"""Append-only log files on a volume.

Both levels of transaction log -- the coordinator log and the per-volume
prepare logs (section 4.2) -- are ordinary files on a volume, appended
durably.  Footnote 9 of the paper: the measured implementation needed
*two* I/Os per append (the log's data page and its inode) while the
corrected design needs one; ``optimized`` selects between them and is
what makes Figure 5 reproducible in both variants.

A record is serialised on append and deserialised by whoever reads it:
what the log holds is literally "what was written", so neither later
in-core mutation by the writer nor anything a reader does to its copy
can retroactively change "what was on disk" -- essential for honest
crash recovery tests.  A fault-free commit never reads its records back
(it discards them by name once resolved), so it pays for one half of
the round trip only.

Beside the ordered records the log keeps an index by the ``tid`` each
record names (section 4.1: the identifier exists so that commit, abort
and recovery can find a transaction's state by name).
:meth:`LogFile.records_of` and :meth:`LogFile.discard` cost one
transaction's records, not the log: a commit's host cost does not grow
with the number of other transactions in flight.  The index changes
neither the order :meth:`LogFile.scan` returns nor ``len()``, from
which the block names of the next append derive.
"""

from __future__ import annotations

import pickle

from .disk import IOCategory

__all__ = ["LogFile"]


def _written(record):
    """``record`` as the log holds it: the two fields the index needs
    (both immutable) and the serialised whole."""
    return (record.get("tid"), record.get("type"),
            pickle.dumps(record, pickle.HIGHEST_PROTOCOL))


class LogFile:
    """A durable, append-only sequence of dictionary records."""

    def __init__(self, engine, cost, volume, name, optimized=False, scheduler=None):
        self._engine = engine
        self._cost = cost
        self._volume = volume
        self.name = name
        self.optimized = optimized
        # Optional GroupCommitScheduler: when set, forces are routed
        # through it so concurrent commits at this disk share a physical
        # write (docs/COMMIT_BATCHING.md).  None = direct writes,
        # byte-identical to the pre-group-commit behaviour.
        self.scheduler = scheduler
        # Durable (survives crashes): seq -> (tid, type, serialised
        # record) in append order, and tid -> the seqs of the records
        # naming it, oldest first.
        self._records = {}
        self._by_tid = {}
        self._next_seq = 0

    def __len__(self):
        return len(self._records)

    def append(self, entry: dict):
        """Generator: durably append one record.

        One log-page write, plus a log-inode write unless running the
        optimized (footnote 9, "being corrected") design.  CPU cost of
        formatting the entry is charged to the caller.
        """
        written = _written(entry)
        yield self._engine.charge(self._cost.instr(self._cost.trans_log_write_instr))
        # Log pages live in their own block namespace; they never collide
        # with (or leak from) the volume's data-block allocator.
        blocks = [(("log", self.name, len(self._records)), b"", IOCategory.LOG_WRITE)]
        if not self.optimized:
            blocks.append(
                (("log-inode", self.name), b"", IOCategory.LOG_INODE_WRITE)
            )
        yield from self._force(blocks)
        self._store(written)

    def append_in_place(self, entry: dict):
        """Generator: durably append a record that overwrites space
        already allocated to this log -- one data-page I/O regardless of
        the optimized flag.  This models the commit-point status marker:
        "the coordinator changes the status marker in its log" (section
        4.2), an in-place update that never grows the log's inode
        (footnote 9 doubles only the *appending* writes, steps 1 and 3).
        """
        written = _written(entry)
        yield self._engine.charge(self._cost.instr(self._cost.trans_log_write_instr))
        data_block = ("log", self.name, "in-place", len(self._records))
        yield from self._force([(data_block, b"", IOCategory.LOG_WRITE)])
        self._store(written)

    def _force(self, blocks):
        """Generator: make ``blocks`` durable, batched when a scheduler
        is attached.  Records are stored by the caller only after this
        returns, so a crash mid-force never fabricates a durable record."""
        if self.scheduler is not None:
            yield from self.scheduler.force(blocks)
            return
        for block_no, data, category in blocks:
            yield from self._volume.disk.write_block(block_no, data, category)

    def _store(self, written):
        seq = self._next_seq
        self._next_seq = seq + 1
        self._records[seq] = written
        tid = written[0]
        if tid is not None:
            self._by_tid.setdefault(tid, []).append(seq)

    def scan(self):
        """All durable records, oldest first, each read back afresh:
        the caller may do anything with them.

        For whole-log readers (reboot recovery, WAL checkpointing); a
        reader after one transaction uses :meth:`records_of`.
        """
        return tuple(pickle.loads(blob)
                     for _tid, _type, blob in self._records.values())

    entries = scan  # the reader's older name

    def records_of(self, tid):
        """The durable records naming ``tid``, oldest first."""
        records = self._records
        return tuple(pickle.loads(records[seq][2])
                     for seq in self._by_tid.get(tid, ()))

    def discard(self, tid, type=None):
        """Garbage-collect a resolved transaction's records -- all of
        them, or only those of one ``type``.  Like :meth:`remove_where`,
        background housekeeping: no I/O is modelled."""
        records = self._records
        kept = []
        for seq in self._by_tid.pop(tid, ()):
            if type is None or records[seq][1] == type:
                del records[seq]
            else:
                kept.append(seq)
        if kept:
            self._by_tid[tid] = kept

    def remove_where(self, predicate):
        """Garbage-collect every record matching ``predicate`` (a WAL
        checkpoint's truncation).

        Log truncation is background housekeeping the paper does not
        charge against transaction latency, so no I/O is modelled.
        """
        kept = [written for written in self._records.values()
                if not predicate(pickle.loads(written[2]))]
        self._records = {}
        self._by_tid = {}
        for written in kept:
            self._store(written)
