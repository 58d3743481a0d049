"""System-wide configuration: the hardware cost model and feature switches.

The paper's measurements were taken on VAX 11/750s (~0.5 MIPS, i.e. 2 us
per instruction) on a 10 Mb Ethernet with Interlan interfaces.  All of
the latencies in the evaluation section follow from three constants:

* CPU speed -- "750 instructions (1.5 ms) per lock" (section 6.2)
* disk I/O time -- Figure 6's latency/service gaps are multiples of ~26 ms
* network one-way latency -- remote locking costs ~18 ms vs ~2 ms local,
  i.e. a ~16 ms round trip (section 6.2)

:class:`CostModel` centralizes those constants plus the instruction
budgets of individual kernel paths, so benchmarks reproduce the paper's
numbers from the same first principles rather than hard-coding outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["CostModel", "SystemConfig"]


@dataclass
class CostModel:
    """Hardware and kernel-path cost constants (seconds / instructions)."""

    # -- hardware ------------------------------------------------------
    instruction_time: float = 2.0e-6     # VAX 11/750 ~ 0.5 MIPS
    disk_io_time: float = 0.026          # one disk operation (seek+rot+xfer)
    net_latency: float = 0.008           # one-way message latency
    net_byte_time: float = 8.0e-7        # 10 Mb/s Ethernet ~ 0.8 us/byte
    page_size: int = 1024                # 1 KiB pages (section 6.3, fn 11)

    # -- kernel instruction budgets -------------------------------------
    syscall_instructions: int = 250      # trap + dispatch (section 6.2:
    #                                      lock cost 1.5 ms *excluding*
    #                                      syscall overhead, ~2 ms with it)
    lock_instructions: int = 750         # process one lock request locally
    unlock_instructions: int = 375       # releases are cheaper than grants
    open_instructions: int = 2500        # name mapping is "relatively
    #                                      expensive" (section 3.2)
    read_write_instructions: int = 400   # validate + move bytes, per page
    fork_instructions: int = 5000        # Unix-style process creation
    migrate_instructions: int = 8000     # package and ship a process

    # -- record commit path (Figure 6 calibration) ----------------------
    commit_base_instr: int = 2250        # build/validate the commit request
    commit_per_page_instr: int = 3600    # per dirty page: flush + intentions
    commit_inode_instr: int = 3600       # atomic inode replacement handling
    # Calibrated jointly against Figure 6 (overlap adds ~3 ms service
    # at ~50 copied bytes) and footnote 11 (4 KiB pages add ~1 ms when
    # a substantial portion of the page is copied):
    diff_base_instr: int = 1300          # set up page differencing
    diff_per_byte_instr: float = 0.17    # copy/compare cost per byte moved
    remote_commit_client_instr: int = 7200  # requesting-site marshalling
    #                                      (Figure 6: remote service 16 ms)

    # -- transaction machinery ------------------------------------------
    trans_begin_instr: int = 500
    trans_log_write_instr: int = 1500    # format a coordinator/prepare entry
    trans_msg_instr: int = 600           # process one 2PC protocol message

    def instr(self, count) -> float:
        """Seconds of CPU for ``count`` instructions."""
        return count * self.instruction_time

    def message_time(self, nbytes) -> float:
        """One-way network time for a message of ``nbytes`` payload."""
        return self.net_latency + nbytes * self.net_byte_time


@dataclass
class SystemConfig:
    """Feature switches and sizing for a simulated Locus cluster."""

    cost: CostModel = field(default_factory=CostModel)

    # Footnote 9: the implementation as measured needed *two* writes per
    # log append (data page + log inode); the paper says this "is being
    # corrected".  False reproduces the measured system (7 I/Os per
    # simple transaction), True the corrected design (5 I/Os).
    optimized_log_writes: bool = False

    # Footnote 10: the implementation used one prepare log per *file*
    # rather than one per volume.  False reproduces the measured system.
    prepare_log_per_volume: bool = True

    # Footnote 7: the measured system's buffer held the *dirtied* page,
    # so a differencing commit re-read the previous version from disk.
    # True enables the paper's proposed optimization of keeping clean
    # copies cached.
    keep_clean_copies: bool = False

    # Section 5.2's proposed optimization: ship the pages covering a
    # remotely requested lock range back with the grant, so reads under
    # the lock need no further round trips.
    prefetch_on_lock: bool = False

    # Push committed versions of replicated files to their other
    # replicas as soon as phase two completes (Locus's background
    # propagation, section 5.2).  Off by default: propagation is also
    # available explicitly via repro.fs.propagate_file.
    auto_propagate: bool = False

    # Commit topology: "flat" is the paper's protocol (coordinator
    # kernel exchanges messages with every participant kernel directly);
    # "tree" is the R*-style hierarchical propagation of section 7.5,
    # provided for the latency comparison the paper makes there.
    commit_protocol: str = "flat"
    tree_branching: int = 2
    rpc_timeout: float = 2.0             # declare a site unreachable after
    rpc_idempotent_retries: int = 1      # deterministic resends of timed-out
    #                                      idempotent requests (status
    #                                      queries, lease recalls) before
    #                                      declaring the site unreachable

    # Lease-based remote-lock caching (docs/LOCK_CACHE.md): a storage
    # site grants a lease on the covering range along with a remote
    # transaction lock, and the using site arbitrates later lock/unlock
    # calls on leased ranges locally -- local-lock instruction cost,
    # zero messages -- until an invalidation callback recalls the lease.
    # Off by default so the fig5/fig6 paper reproductions are untouched.
    lock_cache: bool = False
    lock_cache_lease: float = 5.0        # lease duration (virtual seconds)

    # Commit-path batching (docs/COMMIT_BATCHING.md), three cooperating
    # mechanisms: group commit (concurrent log forces at one disk share
    # a physical write), read-only participant elision (a participant
    # with no dirty intentions votes READ_ONLY, skips its prepare-log
    # force and phase 2), and phase-2 coalescing (commit notifications
    # bound for the same site travel in one message).  Off by default so
    # the fig5/fig6 paper reproductions are byte-identical.
    commit_batching: bool = False
