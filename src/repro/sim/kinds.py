"""The declared announcements: every event kind and span name that
protocol code announces, each with its fields in positional order.

An announcement is a tuple, not a dict.  Protocol code passes the
fields by position -- ``obs.event(KIND, site_id, v1, v2, ...)``,
``obs.span(NAME, site_id, v1, ...)`` and ``obs.end(span, status, ...)``
-- and this table is the one place that says what each position is.
The null announcer ignores the values; ``repro.obs.Observability``
hands an event's values tuple to its subscribers, which read a field by
name through :data:`EVENT_INDEX`, and keeps a span's values tuple with
the declared shape, so a span's attributes are this shape zipped with
its values.  ``tests/test_announcements.py`` checks every call site
against the table.  This module imports nothing from ``repro.obs``.
"""

from __future__ import annotations

__all__ = ["EVENTS", "EVENT_INDEX", "SPANS", "SPAN_END"]

#: event kind -> its fields, in the order ``obs.event`` passes them
#: after the kind and the site.
EVENTS = {
    "txn.state": ("txn", "old", "state"),
    "2pc.decide": ("tid", "decision"),
    "2pc.vote": ("tid", "vote", "coordinator"),
    "2pc.deliver": ("tid", "decision"),
    "2pc.prepare_failed": ("txn", "error", "participants"),
    "lock.grant": ("role", "file_id", "holder", "mode", "start", "end",
                   "nontrans", "table", "manager"),
    "lock.table": ("manager",),
    "deadlock.scan": ("graph", "cycle", "victim", "sites", "txns"),
    "lease.grant": ("file_id", "using_site", "lo", "hi", "expiry",
                    "registry"),
    "lease.renew": ("file_id", "using_site", "expiry"),
    "lease.recalled": ("file_id", "using_site", "registry"),
    "lease.mirror": ("file_id", "holder", "lo", "hi"),
    "lease.surrender": ("file_id", "records", "table"),
    "lease.drop": ("file_id",),
    "wal.commit": ("wal", "owner", "records", "extent"),
    "wal.checkpoint": ("wal", "pages"),
    "wal.recover": ("wal", "records"),
    "wal.abort": ("wal", "owner", "restored"),
    # ``category`` is None on departure from the arm.
    "disk.queue": ("depth", "category"),
    "rpc.send": (),
    "rpc.done": (),
    "site.crash": (),
    "site.recover": (),
    "net.partition": ("groups",),
    "net.heal": (),
    "chain.attempt": ("chain", "tid"),
    "chain.commit": ("chain",),
    "chain.abandon": ("chain",),
    "mix.declare": ("mix", "slos"),
}

#: event kind -> {field: position}, how a subscriber finds a field.
EVENT_INDEX = {kind: {name: i for i, name in enumerate(fields)}
               for kind, fields in EVENTS.items()}

#: span name -> its attribute shape: the fields ``obs.span`` passes
#: after the name and the site, then those only ``obs.end`` supplies.
SPANS = {
    "txn": ("tid", "pid", "mix"),
    "syscall.open": ("pid", "path"),
    "syscall.read": ("pid", "fd", "nbytes"),
    "syscall.write": ("pid", "fd", "nbytes"),
    "syscall.commit_file": ("pid", "fd"),
    "syscall.lock": ("pid", "fd", "mode"),
    "syscall.begin_trans": ("pid",),
    "syscall.end_trans": ("pid",),
    "lock.wait": ("file", "holder", "mode", "start", "end", "blocked_by"),
    "rpc.call": ("kind", "dst"),
    "rpc.serve": ("kind", "src"),
    "2pc": ("tid",),
    "2pc.prepare": ("tid", "files", "coordinator", "vote"),
    "2pc.apply": ("tid",),
    "2pc.abort": ("tid",),
    "2pc.phase2_batch": ("dst", "tids"),
    "disk.read": ("disk", "block", "category", "queued"),
    "disk.write": ("disk", "block", "category", "queued"),
    "wal.commit": ("ino", "owner", "log_pages"),
    "groupcommit.wait": ("disk",),
    "groupcommit.batch": ("disk", "members"),
}

#: span name -> how many of its trailing fields only ``obs.end``
#: supplies (absent: none).
SPAN_END = {
    "2pc.prepare": 1,
    "disk.read": 1,
    "disk.write": 1,
    "wal.commit": 1,
}
