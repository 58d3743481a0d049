"""Operation-counting analysis: shadow paging vs commit logging.

Section 6 of the paper leans on [Weinstein85], an analysis "which
modeled the costs of typical file operations via an operation counting
method", concluding that "the relative performance of shadow paging and
commit log mechanisms is highly dependent on the nature of the access
strings generated by applications".  This module is that model: closed
forms for the I/Os each mechanism performs for a given transaction
shape, plus a sweep helper that exposes the crossover.

Model assumptions (documented, deliberately simple):

* **shadow**: each transaction writes every *page* it dirtied to a
  fresh block (1 I/O per page), one prepare-log append per volume, the
  coordinator-log append, the commit mark, and the deferred inode
  replacement per file.  Pages dirtied by several transactions are paid
  by *each* (shadow cannot amortize across transactions).
* **WAL**: each transaction forces after-images -- I/O proportional to
  *bytes* modified -- plus a commit record; dirty pages are written in
  place once per checkpoint interval, so hot pages amortize across the
  transactions in the interval.

Both models count the same data-read traffic, so reads are omitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["TxnShape", "shadow_txn_ios", "wal_txn_ios", "sweep_record_size",
           "crossover_record_size"]


@dataclass(frozen=True)
class TxnShape:
    """The shape of one transaction's update set."""

    records_written: int
    record_size: int
    page_size: int = 1024
    files: int = 1
    volumes: int = 1
    records_per_page_touched: float = 1.0  # clustering of this txn's writes

    @property
    def pages_dirtied(self) -> int:
        """Distinct pages this transaction dirties."""
        if self.record_size >= self.page_size:
            # Large records: each spans record_size/page_size pages.
            per_record = math.ceil(self.record_size / self.page_size)
            return self.records_written * per_record
        clustered = self.records_written / max(self.records_per_page_touched, 1e-9)
        return max(self.files, int(math.ceil(clustered)))


def shadow_txn_ios(shape: TxnShape, optimized_logs=True) -> float:
    """Per-transaction I/Os under the paper's shadow-page design
    (Figure 5 generalized)."""
    log_write = 1 if optimized_logs else 2
    coordinator = log_write          # step 1
    data = shape.pages_dirtied       # step 2 (repeated per page, 6.1)
    prepare = log_write * shape.volumes  # step 3 (per volume, 6.1)
    commit_mark = 1                  # step 4 (in-place status update)
    inode = shape.files              # step 5 (deferred)
    return coordinator + data + prepare + commit_mark + inode


def wal_txn_ios(shape: TxnShape, checkpoint_interval=20, header_bytes=24) -> float:
    """Per-transaction I/Os under a redo-logging design, with the
    in-place page writes amortized over ``checkpoint_interval``
    transactions."""
    log_bytes = shape.records_written * (shape.record_size + header_bytes)
    log_pages = max(1, math.ceil(log_bytes / shape.page_size))
    commit_record = 1
    # At checkpoint, each dirty page is written once; with uniform
    # access, the pages a transaction dirtied are shared with others in
    # the interval in proportion to clustering.
    checkpoint_share = shape.pages_dirtied / checkpoint_interval
    return log_pages + commit_record + checkpoint_share


def sweep_record_size(record_sizes, records_written=4, page_size=1024,
                      optimized_logs=True, checkpoint_interval=20,
                      records_per_page_touched=1.0):
    """Rows of (record_size, shadow_ios, wal_ios, winner) across record
    sizes -- the axis the paper says decides the comparison."""
    rows = []
    for rs in record_sizes:
        shape = TxnShape(
            records_written=records_written, record_size=rs,
            page_size=page_size,
            records_per_page_touched=records_per_page_touched,
        )
        s = shadow_txn_ios(shape, optimized_logs=optimized_logs)
        w = wal_txn_ios(shape, checkpoint_interval=checkpoint_interval)
        winner = "shadow" if s < w else ("wal" if w < s else "tie")
        rows.append((rs, s, w, winner))
    return rows


def crossover_record_size(page_size=1024, records_written=4,
                          optimized_logs=True, checkpoint_interval=20,
                          records_per_page_touched=1.0, max_size=65536):
    """Smallest record size at which shadow paging matches or beats
    logging, or None if logging wins everywhere in range."""
    size = 16
    while size <= max_size:
        shape = TxnShape(
            records_written=records_written, record_size=size,
            page_size=page_size,
            records_per_page_touched=records_per_page_touched,
        )
        if shadow_txn_ios(shape, optimized_logs) <= wal_txn_ios(
            shape, checkpoint_interval
        ):
            return size
        size *= 2
    return None
