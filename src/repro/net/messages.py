"""Message taxonomy for the simulated LAN.

The real Locus kernel used "lightweight network protocols" -- typed
request/response messages between kernels (section 5.1).  We model a
message as a small dataclass; ``kind`` selects the kernel handler at the
destination and ``body`` carries the payload dictionary.

Well-known kinds used by the upper layers are collected in
:class:`MessageKinds` so protocol code never spells raw strings twice.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

__all__ = ["Message", "MessageKinds", "HEADER_BYTES"]

_msg_ids = itertools.count(1)

#: Fixed per-message overhead (framing, addressing, protocol type).
HEADER_BYTES = 64


@dataclass
class Message:
    """One network message.

    ``reply_to`` set means this is a response to the request with that
    id; ``ok`` False marks a remote error whose ``body['error']`` is the
    stringified exception.
    """

    src: int
    dst: int
    kind: str
    body: dict = field(default_factory=dict)
    nbytes: int = HEADER_BYTES
    msg_id: int = field(default_factory=lambda: next(_msg_ids))
    reply_to: int = None
    ok: bool = True
    #: Causal trace context, ``(trace_id, span_id)`` of the sender's
    #: span, or None.  Observability metadata only: it rides in the
    #: fixed message header (no extra simulated bytes) and is ignored
    #: by every protocol handler.
    trace: tuple = None

    @property
    def is_reply(self) -> bool:
        return self.reply_to is not None


class MessageKinds:
    """Well-known message kinds (section references in parentheses)."""

    # record locking (5.1); LEASE_RECALL is the lock-cache invalidation
    # callback (docs/LOCK_CACHE.md)
    LOCK_REQUEST = "lock.request"
    LEASE_RECALL = "lock.lease_recall"

    # remote file service
    FILE_OPEN = "file.open"
    FILE_CLOSE = "file.close"
    PAGE_READ = "file.page_read"
    PAGE_WRITE = "file.page_write"
    FILE_COMMIT = "file.commit"

    # transaction protocol (4.1-4.3); COMMIT_BATCH carries several
    # transactions' phase-two commit notifications to one site in a
    # single message (docs/COMMIT_BATCHING.md)
    FILELIST_MERGE = "trans.filelist_merge"
    PREPARE = "trans.prepare"
    COMMIT = "trans.commit"
    COMMIT_BATCH = "trans.commit_batch"
    ABORT = "trans.abort"
    TXN_STATUS = "trans.status"

    # process management (4.1)
    MIGRATE = "proc.migrate"
    SPAWN = "proc.spawn"

    # deadlock detection (3.1)
    WAITFOR_QUERY = "lock.waitfor_query"
