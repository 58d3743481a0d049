"""Simulated disk.

A disk is a block store with a single arm: requests queue FIFO and each
operation takes ``cost.disk_io_time`` of virtual time -- a
:class:`~repro.sim.FifoServer`, one engine event per I/O
(docs/ENGINE_PERF.md, "One event per disk I/O").  Every operation
increments a *categorized* I/O counter -- Figure 5 of the paper is an
argument about how many I/Os of which kind a transaction costs, so the
accounting is first-class here.

Under faults the rule is a device's: a request handed to the arm is not
recalled.  If its issuer is interrupted or killed while it waits, the
request still takes its turn and its service time, no bytes are
installed and no counter moves.  A site crash powers the arm off
(:meth:`Disk.power_off`): the requests of the processes it killed are
dropped, so recovery never queues behind the dead.  Contents survive
simulated crashes (a crash discards in-core state only); tests may also
inspect blocks synchronously via :meth:`peek`.
"""

from __future__ import annotations

from repro.sim import FifoServer, Stats

__all__ = ["Disk", "IOCategory"]


class IOCategory:
    """Counter names for the I/O kinds the paper's analysis separates."""

    DATA_READ = "io.read.data"
    DATA_WRITE = "io.write.data"
    INODE_WRITE = "io.write.inode"
    INODE_READ = "io.read.inode"
    LOG_WRITE = "io.write.log"
    LOG_INODE_WRITE = "io.write.log_inode"
    LOG_READ = "io.read.log"


class Disk:
    """One spindle.  All methods doing I/O are simulation generators."""

    def __init__(self, engine, cost, name="disk", stats=None, site=None):
        self._engine = engine
        self._cost = cost
        self.name = name
        self.site = site  # observability attribution only
        self.stats = stats if stats is not None else Stats()
        self._arm = FifoServer(engine, cost.disk_io_time)
        self._blocks = {}  # block number -> bytes

    # ------------------------------------------------------------------
    # simulated I/O
    # ------------------------------------------------------------------

    def read_block(self, block_no, category=IOCategory.DATA_READ):
        """Generator: read one block; returns its bytes (zeros if never
        written, like a freshly formatted disk)."""
        obs = self._engine.obs
        self._io_arrive(obs, category)
        span = obs.span("disk.read", self.site, self.name, block_no, category)
        yield self._arm
        self._io_done(span)
        self.stats.incr(category)
        self.stats.incr("io.total")
        return self._blocks.get(block_no, bytes(self._cost.page_size))

    def write_block(self, block_no, data, category=IOCategory.DATA_WRITE):
        """Generator: write one block durably."""
        if len(data) > self._cost.page_size:
            raise ValueError(
                "block %d: %d bytes exceeds page size %d"
                % (block_no, len(data), self._cost.page_size)
            )
        obs = self._engine.obs
        self._io_arrive(obs, category)
        span = obs.span("disk.write", self.site, self.name, block_no,
                        category)
        yield self._arm
        self._io_done(span)
        self._blocks[block_no] = bytes(data)
        self.stats.incr(category)
        self.stats.incr("io.total")

    def absorb_block(self, block_no, data, category=IOCategory.LOG_WRITE):
        """Install block contents with **no** arm time or physical I/O:
        the bytes rode along with a group-commit batch write that already
        paid the physical transfer (docs/COMMIT_BATCHING.md).

        Counted separately as a *coalesced* (logical) I/O -- per category
        and in ``io.coalesced`` -- so Figure-5-style I/O accounting stays
        exact under group commit: a batched force is 1 physical I/O, N
        logical ones.
        """
        self._blocks[block_no] = bytes(data)
        self.stats.incr(category + ".coalesced")
        self.stats.incr("io.coalesced")

    def power_off(self):
        """Site crash: the requests of the processes it killed are gone
        with them; the arm is free for recovery."""
        self._arm.drop_abandoned()

    def _io_arrive(self, obs, category):
        # Queue depth per I/O category, sampled at request arrival: how
        # many requests (including this one) the arm has outstanding.
        # Under group commit this shows log-force convoys collapsing.
        depth = float(self._arm.outstanding + 1)
        obs.observe(self.site, "disk.qdepth." + category, depth)
        obs.event("disk.queue", self.site, depth, category)

    def _io_done(self, span):
        """Close the I/O span and record the operation's latency: total
        time at the arm, plus the portion spent queued behind others.
        The queued portion is also pinned on the span (``queued`` attr)
        so the critical-path extractor can split the span into
        disk.queue and disk.io blame without knowing the cost model."""
        if span is None:  # nobody observes: no queue arithmetic
            return
        obs = self._engine.obs
        total = self._engine.now - span.start
        queued = max(total - self._cost.disk_io_time, 0.0)
        obs.end(span, None, queued)
        obs.observe(self.site, "disk.io", total)
        obs.observe(self.site, "disk.queue", queued)
        obs.event("disk.queue", self.site, float(self._arm.outstanding),
                  None)

    def free_block(self, block_no):
        """Release a block (no I/O: the free map lives in core and is
        flushed with other metadata; the paper does not charge for it)."""
        self._blocks.pop(block_no, None)

    # ------------------------------------------------------------------
    # synchronous inspection (tests / recovery assertions only)
    # ------------------------------------------------------------------

    def peek(self, block_no) -> bytes:
        """Block contents without simulated I/O (test inspection)."""
        return self._blocks.get(block_no, bytes(self._cost.page_size))

    def exists(self, block_no) -> bool:
        """Has the block ever been written (and not freed)?"""
        return block_no in self._blocks

    @property
    def block_count(self) -> int:
        return len(self._blocks)
