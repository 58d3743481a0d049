"""Critical-path extraction over completed causal trace trees.

PR 1's span trees record *what happened*; this module answers *where
the time went*.  For a chosen root span -- a transaction's ``txn`` root
(BeginTrans to commit-acknowledged) or its ``2pc`` span (EndTrans to
the commit point, the window ``commit.latency`` measures) -- the
extractor partitions every virtual nanosecond of the root's interval
into **blame categories** (cpu, lock.wait, disk.io, disk.queue, net,
rpc.server, 2pc.phase1, 2pc.phase2, groupcommit) by walking the
blocking chain: at each instant the *deepest* active descendant span
is the thing the transaction was actually waiting on, and its category
takes the blame.  Self-time and child-time are separated by
construction -- a span is only charged for instants none of its
children cover.

All arithmetic is integer nanoseconds (the simulator's virtual clock is
exact), so per-transaction category sums equal the end-to-end latency
*exactly* -- no tolerance, which is what lets the regression gate and
the reconciliation tests assert equality rather than closeness.

Everything here is a pure reader of a :class:`~repro.obs.span.SpanRecorder`;
nothing touches the engine or the virtual clock.
"""

from __future__ import annotations

__all__ = [
    "Category",
    "Segment",
    "TxnPath",
    "to_ns",
    "categorize",
    "children_index",
    "critical_path",
    "transaction_paths",
    "blame_totals",
    "critpath_section",
]

#: Virtual nanoseconds per virtual second: the exact integer domain all
#: critical-path accounting happens in.
NS_PER_S = 1_000_000_000


def to_ns(seconds) -> int:
    """Quantize a virtual-time float to integer nanoseconds."""
    return int(round(seconds * NS_PER_S))


class Category:
    """Blame categories a critical-path nanosecond can land in."""

    CPU = "cpu"                    # syscall bodies, instruction charges
    LOCK_WAIT = "lock.wait"        # queued behind a conflicting lock
    DISK_IO = "disk.io"            # the arm actually transferring
    DISK_QUEUE = "disk.queue"      # queued behind other disk requests
    NET = "net"                    # wire transit + remote dispatch
    RPC_SERVER = "rpc.server"      # remote handler overhead
    PHASE1 = "2pc.phase1"          # coordinator protocol + prepare
    PHASE2 = "2pc.phase2"          # apply / commit notifications
    GROUP_COMMIT = "groupcommit"   # waiting on a shared log-force batch

    ALL = (CPU, LOCK_WAIT, DISK_IO, DISK_QUEUE, NET, RPC_SERVER,
           PHASE1, PHASE2, GROUP_COMMIT)


#: span name -> category.  Disk spans are special-cased in the walker:
#: their interval is split at the queue/transfer boundary recorded by
#: the disk hook (``queued`` attr), yielding DISK_QUEUE then DISK_IO.
_NAME_CATEGORIES = {
    "lock.wait": Category.LOCK_WAIT,
    "rpc.call": Category.NET,
    "rpc.serve": Category.RPC_SERVER,
    "2pc": Category.PHASE1,
    "2pc.prepare": Category.PHASE1,
    "2pc.apply": Category.PHASE2,
    "2pc.phase2_batch": Category.PHASE2,
    "2pc.abort": Category.PHASE2,
    "groupcommit.wait": Category.GROUP_COMMIT,
    "groupcommit.batch": Category.GROUP_COMMIT,
}


def categorize(span) -> str:
    """The blame category of a span's *self* time."""
    name = span.name
    if name in _NAME_CATEGORIES:
        return _NAME_CATEGORIES[name]
    if name.startswith("disk."):
        return Category.DISK_IO
    return Category.CPU   # syscall.*, txn, wal.commit bookkeeping, ...


class Segment:
    """One attributed slice of the root interval: [start_ns, end_ns)
    blamed on ``span`` under ``category``."""

    __slots__ = ("start_ns", "end_ns", "span", "category")

    def __init__(self, start_ns, end_ns, span, category):
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.span = span
        self.category = category

    @property
    def ns(self) -> int:
        return self.end_ns - self.start_ns

    def __repr__(self):
        return "<Segment %s %s [%d, %d)>" % (
            self.category, self.span.name, self.start_ns, self.end_ns,
        )


def children_index(recorder) -> dict:
    """``{span_id: [child spans in start order]}`` over every recorded
    span -- build once, reuse across per-transaction walks."""
    index = {}
    for span in recorder.spans:
        if span.parent_id is not None:
            index.setdefault(span.parent_id, []).append(span)
    return index


def _subtree(root, index):
    """Root plus every recorded descendant, with depths."""
    out = [(root, 0)]
    stack = [(root, 0)]
    while stack:
        span, depth = stack.pop()
        for child in index.get(span.span_id, ()):
            out.append((child, depth + 1))
            stack.append((child, depth + 1))
    return out


def critical_path(root, index, now=None):
    """Exact blame partition of ``root``'s interval.

    Returns the list of :class:`Segment` covering ``[root.start,
    root.end)`` with no gaps and no overlaps (integer nanoseconds).  At
    each instant the deepest active descendant wins; ties go to the
    span that ends latest (the one actually blocking), then to the
    younger span id.  Open spans are clipped at ``now`` (default: the
    root's end).
    """
    root_end = root.end if root.end is not None else now
    if root_end is None:
        raise ValueError("root span %r is open and no `now` was given" % root)
    w0, w1 = to_ns(root.start), to_ns(root_end)
    if w1 <= w0:
        return []

    clipped = []  # (start_ns, end_ns, depth, span, queue_boundary_ns|None)
    for span, depth in _subtree(root, index):
        end = span.end if span.end is not None else root_end
        s = max(to_ns(span.start), w0)
        e = min(to_ns(end), w1)
        if e <= s:
            continue
        qb = None
        if span.name.startswith("disk."):
            queued = span.attrs.get("queued")
            if queued:
                qb = min(max(to_ns(span.start) + to_ns(queued), s), e)
        clipped.append((s, e, depth, span, qb))

    points = set()
    for s, e, _d, _span, qb in clipped:
        points.add(s)
        points.add(e)
        if qb is not None:
            points.add(qb)
    points = sorted(points)

    by_start = sorted(clipped, key=lambda c: c[0])
    active = []
    segments = []
    next_span = 0
    for a, b in zip(points, points[1:]):
        while next_span < len(by_start) and by_start[next_span][0] <= a:
            active.append(by_start[next_span])
            next_span += 1
        active = [c for c in active if c[1] > a]
        # Deepest active span wins; among equals, the one still blocking
        # (latest end), then the younger (higher id) for determinism.
        winner = max(active, key=lambda c: (c[2], c[1], c[3].span_id))
        _s, _e, _depth, span, qb = winner
        if qb is not None and a < qb:
            category = Category.DISK_QUEUE
        elif qb is not None:
            category = Category.DISK_IO
        else:
            category = categorize(span)
        last = segments[-1] if segments else None
        if last is not None and last.span is span and last.category == category \
                and last.end_ns == a:
            last.end_ns = b
        else:
            segments.append(Segment(a, b, span, category))
    return segments


def blame_totals(segments) -> dict:
    """``{category: ns}`` over a segment list (exact partition sums)."""
    totals = {}
    for seg in segments:
        totals[seg.category] = totals.get(seg.category, 0) + seg.ns
    return totals


class TxnPath:
    """One transaction's critical-path decomposition.

    ``categories`` covers the full ``txn`` root span (BeginTrans to
    commit-acknowledged); ``commit_categories`` covers the ``2pc`` span
    only -- the exact window ``commit.latency`` measures, so
    ``sum(commit_categories.values()) == commit_total_ns`` and
    ``commit_latency_s`` equals the sketched sample bit for bit.
    """

    def __init__(self, root, segments, commit_span, commit_segments):
        self.root = root
        self.tid = root.attrs.get("tid")
        self.site = root.site_id
        self.trace_id = root.trace_id
        self.status = root.status
        self.segments = segments
        self.total_ns = sum(seg.ns for seg in segments)
        self.categories = blame_totals(segments)
        self.commit_span = commit_span
        self.commit_segments = commit_segments
        self.commit_total_ns = sum(seg.ns for seg in commit_segments)
        self.commit_categories = blame_totals(commit_segments)
        self.commit_latency_s = (
            commit_span.duration if commit_span is not None else None
        )

    def self_times(self, commit_only=False) -> list:
        """Drill-down rows: ``(span, category, self_ns)`` for every span
        that owns at least one nanosecond of the path, in first-blamed
        order."""
        out = []
        seen = {}
        for seg in (self.commit_segments if commit_only else self.segments):
            key = (seg.span.span_id, seg.category)
            if key in seen:
                seen[key][2] += seg.ns
            else:
                row = [seg.span, seg.category, seg.ns]
                seen[key] = row
                out.append(row)
        return [(span, category, ns) for span, category, ns in out]


def transaction_paths(recorder, now=None) -> list:
    """One :class:`TxnPath` per closed ``txn`` root span, in start
    order.  ``now`` clips any span still open (a run cut short)."""
    index = children_index(recorder)
    paths = []
    for root in recorder.spans:
        if root.name != "txn" or root.end is None:
            continue
        segments = critical_path(root, index, now=now)
        commit_span = None
        for span, _depth in _subtree(root, index):
            if span.name == "2pc" and span.end is not None:
                commit_span = span
                break
        commit_segments = (
            critical_path(commit_span, index, now=now)
            if commit_span is not None else []
        )
        paths.append(TxnPath(root, segments, commit_span, commit_segments))
    return paths


# ----------------------------------------------------------------------
# report section
# ----------------------------------------------------------------------

def _span_label(span):
    label = span.name
    if span.site_id is not None:
        label += "@%s" % (span.site_id,)
    return label


def critpath_section(obs, top=3) -> dict:
    """The ``critpath`` section of a ``repro.bench_report`` document:
    per-transaction blame, aggregate category totals, and a top-k
    slowest-transaction drill-down.  Pure reader; deterministic."""
    paths = transaction_paths(obs.spans)
    transactions = []
    categories = {}
    commit_categories = {}
    for path in paths:
        for cat, ns in path.categories.items():
            categories[cat] = categories.get(cat, 0) + ns
        for cat, ns in path.commit_categories.items():
            commit_categories[cat] = commit_categories.get(cat, 0) + ns
        entry = {
            "tid": path.tid,
            "site": path.site,
            "trace_id": path.trace_id,
            "status": path.status,
            "total_ns": path.total_ns,
            "categories": dict(sorted(path.categories.items())),
        }
        if path.commit_span is not None:
            entry["commit"] = {
                "total_ns": path.commit_total_ns,
                "latency_s": path.commit_latency_s,
                "categories": dict(sorted(path.commit_categories.items())),
            }
        transactions.append(entry)

    slowest = sorted(paths, key=lambda p: (-p.total_ns, p.trace_id))[:top]
    drill = []
    for path in slowest:
        steps = [
            {"span": _span_label(span), "category": category, "self_ns": ns}
            for span, category, ns in path.self_times()
        ]
        drill.append({"tid": path.tid, "total_ns": path.total_ns,
                      "steps": steps})
    return {
        "transactions": transactions,
        "categories": dict(sorted(categories.items())),
        "commit_categories": dict(sorted(commit_categories.items())),
        "top": drill,
    }
