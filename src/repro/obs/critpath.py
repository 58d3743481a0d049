"""The blame table: one pass over a finished run's span archive.

The span trees record *what happened*; the blame table says *where the
time went*, and behind whom.  :class:`BlameTable` walks the archive
once.  For every closed ``txn`` root -- a transaction attempt,
BeginTrans to commit-acknowledged -- and its ``2pc`` span (EndTrans to
the commit point, the window ``commit.latency`` measures),
:func:`critical_path` splits every virtual nanosecond of the window
into a blame category; each slice is one row.  Every closed
``lock.wait`` and disk span is one more row, because contention counts
waits and I/Os off any critical path too.  The report's four blame
sections are group-bys over the rows: :func:`critpath_view`,
:func:`contention_view`, :func:`hotness_view` and
:func:`repro.obs.waste.waste_view`.

Critical-path arithmetic is integer nanoseconds (the virtual clock is
exact), so an attempt's rows partition its window *exactly*: the schema
validator and the tests assert equality, not closeness.  Pure reader;
nothing here touches the engine or the virtual clock.
"""

from __future__ import annotations

import math

__all__ = [
    "RANGE_BUCKET",
    "Category",
    "Row",
    "BlameTable",
    "to_ns",
    "range_key",
    "categorize",
    "critical_path",
    "critpath_view",
    "critpath_section",
    "contention_view",
    "hotness_view",
]

#: Virtual nanoseconds per virtual second: the exact integer domain all
#: critical-path accounting happens in.
NS_PER_S = 1_000_000_000

#: Byte-range rounding for lock-wait keys: waits on nearby records of
#: one file aggregate into the same contended range.
RANGE_BUCKET = 4096

#: Entries the truncated views keep: slowest-attempt drill-downs;
#: contention resources and edges, and waste's hot ranges; hot keys.
TOP_PATHS = 3
TOP_RESOURCES = 10
TOP_KEYS = 5

#: Hotness windows (virtual seconds); EWMA smoothing factor (~70 % of a
#: key's score decays within three quiet windows); the score one blamed
#: abort adds, in equivalent wait-seconds.
HOT_WINDOW_S = 1.0
HOT_ALPHA = 0.3
HOT_ABORT_WEIGHT = 0.25


def to_ns(seconds) -> int:
    """Quantize a virtual-time float to integer nanoseconds."""
    return int(round(seconds * NS_PER_S))


def range_key(site, file_id, start) -> tuple:
    """``(site, file, range bucket)``: the key every view groups lock
    waits, and the aborts they cause, by."""
    return ("-" if site is None else str(site), str(file_id),
            int(start) // RANGE_BUCKET * RANGE_BUCKET)


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


class Row:
    """One row of the blame table: ``[start_ns, end_ns)`` blamed on
    ``span`` under ``category``.

    ``window`` is ``"txn"`` or ``"2pc"`` for a critical-path slice of
    the attempt whose ``txn`` root span is ``attempt`` (its attrs carry
    the tid and mix, its status the outcome), and ``"span"`` for a whole
    closed lock.wait or disk span (``attempt`` None; a disk row spans
    its queued time).  The span's attrs carry the rest: a lock wait's
    ``holder`` and ``blocked_by``, a disk I/O's ``disk``, ``category``
    and ``queued``."""

    __slots__ = ("start_ns", "end_ns", "span", "category", "window",
                 "attempt")

    def __init__(self, start_ns, end_ns, span, category, window=None):
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.span = span
        self.category = category
        self.window = window
        self.attempt = None

    @property
    def ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def key(self) -> tuple:
        """A lock-wait row's :func:`range_key`."""
        attrs = self.span.attrs
        return range_key(self.span.site_id, attrs.get("file", "?"),
                         attrs.get("start", 0))


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


def critical_path(root, index) -> list:
    """Exact blame partition of the closed span ``root``'s interval.

    Returns the :class:`Row` list covering ``[root.start, root.end)``
    with no gaps and no overlaps (integer nanoseconds); ``index`` maps
    a span id to its children.  At each instant the deepest active
    descendant wins; ties go to the span that ends latest (the one
    actually blocking), then to the younger span id.  Descendants still
    open are clipped at the root's end.
    """
    w0, w1 = to_ns(root.start), to_ns(root.end)
    if w1 <= w0:
        return []

    clipped = []  # (start_ns, end_ns, depth, span, queue_boundary_ns|None)
    for span, depth in _subtree(root, index):
        end = span.end if span.end is not None else root.end
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
    rows = []
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
        last = rows[-1] if rows else None
        if last is not None and last.span is span and last.category == category \
                and last.end_ns == a:
            last.end_ns = b
        else:
            rows.append(Row(a, b, span, category))
    return rows


class BlameTable:
    """The blame table of one finished run of ``obs``, built in one pass.

    ``attempts`` lists the closed ``txn`` root spans in archive order;
    ``commit_spans`` maps each to its closed ``2pc`` span, if it reached
    one.  ``rows`` holds each attempt's ``txn`` then ``2pc`` window rows,
    followed by the ``"span"`` rows in archive order.
    """

    def __init__(self, obs):
        self.provenance = obs.provenance
        self.until = obs.engine.now
        index, spans = {}, []
        for span in obs.spans.spans:
            if span.parent_id is not None:
                index.setdefault(span.parent_id, []).append(span)
            if span.end is not None and (span.name in ("txn", "lock.wait")
                                         or span.name.startswith("disk.")):
                spans.append(span)
        self.attempts = [span for span in spans if span.name == "txn"]
        self.commit_spans = {}
        self.rows = []
        for root in self.attempts:
            commit = self.commit_spans[root] = next(
                (span for span, _depth in _subtree(root, index)
                 if span.name == "2pc" and span.end is not None), None)
            for window, span in (("txn", root), ("2pc", commit)):
                if span is not None:
                    for row in critical_path(span, index):
                        row.window, row.attempt = window, root
                        self.rows.append(row)
        for span in spans:
            start = to_ns(span.start)
            if span.name == "lock.wait":
                self.rows.append(Row(start, to_ns(span.end), span,
                                     Category.LOCK_WAIT, "span"))
            elif span.name != "txn":
                end = start + to_ns(span.attrs.get("queued") or 0)
                self.rows.append(Row(start, end, span, Category.DISK_QUEUE,
                                     "span"))

    def blame(self, window) -> dict:
        """``{attempt: {category: ns}}`` over one window's rows."""
        out = {}
        for row in self.rows:
            if row.window == window:
                cats = out.setdefault(row.attempt, {})
                cats[row.category] = cats.get(row.category, 0) + row.ns
        return out


def _add(totals, categories):
    for cat, ns in categories.items():
        totals[cat] = totals.get(cat, 0) + ns


def critpath_view(table) -> dict:
    """The ``critpath`` report section: each attempt's blame over both
    windows, aggregate category totals, and the slowest attempts'
    span-by-span drill-down."""
    blame, commit_blame = table.blame("txn"), table.blame("2pc")
    section = {"transactions": [], "categories": {},
               "commit_categories": {}, "top": []}
    total = {root: sum(blame.get(root, {}).values()) for root in table.attempts}
    for root in table.attempts:
        entry = {"tid": root.attrs.get("tid"), "site": root.site_id,
                 "trace_id": root.trace_id, "status": root.status,
                 "total_ns": total[root], "categories": blame.get(root, {})}
        _add(section["categories"], entry["categories"])
        commit_span = table.commit_spans[root]
        if commit_span is not None:
            cats = commit_blame.get(root, {})
            _add(section["commit_categories"], cats)
            entry["commit"] = {"total_ns": sum(cats.values()),
                               "latency_s": commit_span.duration,
                               "categories": cats}
        section["transactions"].append(entry)
    for root in sorted(table.attempts,
                       key=lambda r: (-total[r], r.trace_id))[:TOP_PATHS]:
        steps = {}   # (span id, category) -> step, in first-blamed order
        for row in table.rows:
            if row.attempt is root and row.window == "txn":
                label = row.span.name if row.span.site_id is None \
                    else "%s@%s" % (row.span.name, row.span.site_id)
                step = steps.setdefault((row.span.span_id, row.category), {
                    "span": label, "category": row.category, "self_ns": 0})
                step["self_ns"] += row.ns
        section["top"].append({"tid": root.attrs.get("tid"),
                               "total_ns": total[root],
                               "steps": list(steps.values())})
    return section


def critpath_section(obs) -> dict:
    """The ``critpath`` section of ``obs``'s finished run."""
    return critpath_view(BlameTable(obs))


def contention_view(table) -> dict:
    """The ``contention`` report section: which resource, and whose
    fault.  Whole lock waits, on or off any critical path, by
    :func:`range_key`, with the holders that blocked them (recorded at
    queue time) ranked by the wait they caused; disk queueing by (site,
    disk, I/O category); and each (waiter, blocker) edge's count and
    blocked time -- the temporal complement of the deadlock detector's
    snapshots.  The ``*_total`` counts keep truncation visible."""
    locks, disks, edges = {}, {}, {}
    for row in table.rows:
        if row.window != "span":
            continue
        span, ns, attrs = row.span, row.ns, row.span.attrs
        if row.category == Category.DISK_QUEUE:
            key = ("-" if span.site_id is None else str(span.site_id),
                   attrs.get("disk", "?"), attrs.get("category", "?"))
            entry = disks.setdefault(key, {
                "site": key[0], "disk": key[1], "category": key[2],
                "ios": 0, "queued_ios": 0, "queued_ns": 0})
            entry["ios"] += 1
            if attrs.get("queued"):
                entry["queued_ios"] += 1
                entry["queued_ns"] += ns
            continue
        site, file_id, bucket = row.key
        entry = locks.setdefault(row.key, {
            "site": site, "file": file_id,
            "range": [bucket, bucket + RANGE_BUCKET],
            "waits": 0, "total_ns": 0, "max_ns": 0, "blockers": {}})
        entry["waits"] += 1
        entry["total_ns"] += ns
        entry["max_ns"] = max(entry["max_ns"], ns)
        waiter = attrs.get("holder")
        for blocker in attrs.get("blocked_by", ()):
            entry["blockers"][blocker] = entry["blockers"].get(blocker, 0) + ns
            edge = edges.setdefault((waiter, blocker), {
                "waiter": waiter, "blocker": blocker,
                "count": 0, "total_ns": 0})
            edge["count"] += 1
            edge["total_ns"] += ns
    for entry in locks.values():
        entry["blockers"] = [
            {"holder": holder, "blocked_ns": ns}
            for holder, ns in sorted(entry["blockers"].items(),
                                     key=lambda kv: (-kv[1], kv[0]))]
    locks = sorted(locks.values(), key=lambda e: (
        -e["total_ns"], e["site"], e["file"], e["range"][0]))
    disks = sorted(disks.values(), key=lambda e: (
        -e["queued_ns"], e["site"], e["disk"], e["category"]))
    edges = sorted(edges.values(), key=lambda e: (
        -e["total_ns"], e["waiter"], e["blocker"]))
    return {
        "range_bucket": RANGE_BUCKET,
        "lock_resources": locks[:TOP_RESOURCES],
        "lock_resources_total": len(locks),
        "disk_resources": disks[:TOP_RESOURCES],
        "disk_resources_total": len(disks),
        "edges": edges[:TOP_RESOURCES],
        "edges_total": len(edges),
    }


def _abort_points(prov):
    """(time, key) for every abort record that blames a byte range:
    a deadlock's closing edge."""
    for rec in prov.records if prov is not None else ():
        closing = (rec.detail or {}).get("closing")
        if rec.cause == "deadlock" and closing and len(closing) >= 6:
            # (waiter, blocker, site, file, start, end)
            yield rec.time, range_key(*closing[2:5])


def hotness_view(table) -> dict:
    """The ``hotness`` report section: where contention is *trending*.

    The run is cut into fixed virtual-time windows.  Every lock-wait
    ``"span"`` row books its wait, in float seconds, into the windows
    it overlaps, per :func:`range_key`; a deadlock victim's closing
    range adds one abort to its key's window.  A key's EWMA score
    (``alpha * x + (1 - alpha) * score``, ``x`` = the window's wait
    seconds plus the abort weight per abort) lets recent heat dominate
    and cooled-off keys decay.
    Carries the top keys by final score with their score series, and
    each window's top-key ranking -- the drift signal.
    """
    window = HOT_WINDOW_S
    nwin = max(1, int(math.ceil(float(table.until) / window - 1e-9)))
    cells = {}   # key -> ([wait seconds per window], [aborts per window])

    def cell(key):
        return cells.setdefault(key, ([0.0] * nwin, [0] * nwin))

    for row in table.rows:
        if row.window != "span" or row.category != Category.LOCK_WAIT:
            continue
        waits = cell(row.key)[0]
        lo, hi = row.span.start, row.span.end
        w0 = min(nwin - 1, int(lo / window))
        w1 = min(nwin - 1, int(max(lo, hi - 1e-12) / window))
        for w in range(w0, w1 + 1):
            a = max(lo, w * window)
            b = min(hi, (w + 1) * window)
            if b > a:
                waits[w] += b - a
    for t, key in _abort_points(table.provenance):
        cell(key)[1][min(nwin - 1, max(0, int(t / window)))] += 1

    scores = {}     # key -> [score per window]
    for key, (waits, aborts) in cells.items():
        score = 0.0
        series = scores[key] = []
        for x, n in zip(waits, aborts):
            score = HOT_ALPHA * (x + HOT_ABORT_WEIGHT * n) \
                + (1.0 - HOT_ALPHA) * score
            series.append(score)
    ranking = [
        ["%s:%s:%d" % k for k in sorted(
            (k for k in scores if scores[k][w] > 1e-12),
            key=lambda k: (-scores[k][w], k))[:TOP_KEYS]]
        for w in range(nwin)]
    order = sorted(scores, key=lambda k: (-scores[k][-1], -max(scores[k]), k))
    return {
        "window_s": window,
        "windows": nwin,
        "alpha": HOT_ALPHA,
        "abort_weight": HOT_ABORT_WEIGHT,
        "keys": len(cells),
        "top": [{"site": key[0], "file": key[1], "range_start": key[2],
                 "score": scores[key][-1], "peak_score": max(scores[key]),
                 "wait_s": sum(cells[key][0]), "aborts": sum(cells[key][1]),
                 "scores": [round(s, 9) for s in scores[key]]}
                for key in order[:TOP_KEYS]],
        "ranking": ranking,
    }
