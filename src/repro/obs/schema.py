"""The ``BENCH_report.json`` schema: one table of report sections.

A document is a header (:func:`report_header`) plus sections, each one
:class:`Section` record of :data:`SECTIONS` -- checker, printed table,
diffed leaves -- that the validator, the report and grid CLIs and
``repro.analysis.diff`` all iterate.  A top-level key that is neither a
header field nor a declared section is a schema problem.

The report is a contract between the simulator and downstream tooling
(CI, dashboards, regression diffing), so the shape is validated rather
than assumed.  The validator is hand-rolled -- the repository has a
no-new-dependencies rule, so ``jsonschema`` is out -- but the checks
are the same in spirit: required keys and their types, plus every
cross-field invariant a section promises (exact category sums, burn
arithmetic, grid coverage, monotone quantiles).  Types are checked
before any arithmetic, so a malformed document always raises
:class:`SchemaError`, never a ``TypeError``.

Only the current version, ``repro.bench_report/10``, is accepted: a
document carrying any other id is rejected with one problem naming the
id it carries (regenerate it with the current tree).

Run standalone::

    python -m repro.obs.schema BENCH_report.json

An invalid document gets one ``invalid: ...`` block on stderr and exit
code 1.  A file that cannot be read or is not JSON gets one ``cannot
read`` line and exit code 2 (as from ``repro.analysis.diff``), so it is
not mistaken for a document that violates the schema.
"""

from __future__ import annotations

import sys
from collections import namedtuple

from .provenance import CAUSES, STORM_WINDOW

__all__ = ["SCHEMA_ID", "REQUIRED_METRICS", "SPAN_FIELDS", "SUMMARY_FIELDS",
           "SCALING_CURVES", "Section", "SECTIONS", "report_header",
           "validate_report", "SchemaError"]

SCHEMA_ID = "repro.bench_report/10"

#: Metric families every report must carry in at least one site
#: (the per-phase breakdown the analysis layer is built on).
REQUIRED_METRICS = ("lock.wait", "rpc.rtt", "disk.io", "commit.latency")

#: The span totals a header carries.
SPAN_FIELDS = ("recorded", "dropped", "traces", "instants")


def report_header(scenario, virtual_time, sites=None, counters=None,
                  spans=None) -> dict:
    """A document's header: ``sites`` and ``counters`` default to empty
    (a grid whose clusters ran cell-locally), ``spans`` to zero totals."""
    from repro import __version__

    return {"schema": SCHEMA_ID, "generator": "repro %s" % __version__,
            "scenario": scenario, "virtual_time": virtual_time,
            "sites": sites or {}, "counters": counters or {},
            "spans": spans or dict.fromkeys(SPAN_FIELDS, 0)}


class SchemaError(ValueError):
    """The document does not conform to the current schema."""


def _fail(problems):
    if len(problems) == 1:
        raise SchemaError("invalid bench report: %s" % problems[0])
    raise SchemaError(
        "invalid bench report (%d problems):\n  - %s"
        % (len(problems), "\n  - ".join(problems))
    )


# ----------------------------------------------------------------------
# typed fields
# ----------------------------------------------------------------------

def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


#: A field kind: how problems describe it, and the test a value passes.
Kind = namedtuple("Kind", "name test")

INT = Kind("an integer", _is_int)
NUM = Kind("numeric", _is_num)
BOOL = Kind("a boolean", lambda v: isinstance(v, bool))
STR = Kind("a string", lambda v: isinstance(v, str))
OBJ = Kind("an object", lambda v: isinstance(v, dict))
LIST = Kind("a list", lambda v: isinstance(v, list))
INT_MAP = Kind("an integer-valued object",
               lambda v: isinstance(v, dict)
               and all(map(_is_int, v.values())))
NUM_MAP = Kind("a numeric object",
               lambda v: isinstance(v, dict)
               and all(map(_is_num, v.values())))
NUM_LIST = Kind("a numeric list",
                lambda v: isinstance(v, list) and all(map(_is_num, v)))
STR_LIST = Kind("a list of strings",
                lambda v: isinstance(v, list)
                and all(isinstance(s, str) for s in v))


def _typed(problems, where, obj, spec, optional=()):
    """Check ``obj``'s fields against ``spec`` ({key: kind}), one
    problem per field that is missing or of the wrong kind; a key in
    ``optional`` may also be absent or null.  Returns {key: value} for
    the fields that passed, so invariants test membership first and
    never do arithmetic on an unchecked value."""
    good = {}
    for key, kind in spec.items():
        value = obj.get(key)
        if value is None and key in optional:
            continue
        if kind.test(value):
            good[key] = value
        else:
            problems.append("%s.%s missing or not %s"
                            % (where, key, kind.name))
    return good


def _obj(problems, where, value):
    """True when ``value`` is an object; records a problem otherwise."""
    if isinstance(value, dict):
        return True
    problems.append("%s is %s, expected object" % (where, type(value).__name__))
    return False


def _each(problems, where, mapping):
    """(key, label, value) for every object-valued entry of a mapping,
    in key order, recording a problem for every other entry."""
    for key, value in sorted(mapping.items()):
        label = "%s[%r]" % (where, key)
        if _obj(problems, label, value):
            yield key, label, value


def _objects(problems, where, items, spec, optional=()):
    """:func:`_typed` over every object of a list, recording a problem
    for every other entry; (label, object, checked fields) per object."""
    out = []
    for i, item in enumerate(items):
        label = "%s[%d]" % (where, i)
        if _obj(problems, label, item):
            out.append((label, item,
                        _typed(problems, label, item, spec, optional)))
    return out


def _category_sum(problems, where, obj, total_key):
    """``obj.categories`` (integer nanoseconds) sums exactly to
    ``obj[total_key]`` -- no tolerance.  Returns the checked fields."""
    good = _typed(problems, where, obj,
                  {total_key: INT, "categories": INT_MAP})
    if len(good) == 2:
        total = sum(good["categories"].values())
        if total != good[total_key]:
            problems.append("%s: category sum %d != %s %d"
                            % (where, total, total_key, good[total_key]))
    return good


def _positive(problems, where, good, *keys):
    """Checked numbers that must also be > 0."""
    for key in keys:
        if key in good and good[key] <= 0:
            problems.append("%s.%s is not a positive number" % (where, key))
            del good[key]


def _grid_size(problems, where, section, allow_empty):
    """The cell count a grid declares, or None when it is malformed."""
    grid = section.get("grid")
    if not isinstance(grid, dict) or not all(
        isinstance(v, list) and (allow_empty or v) for v in grid.values()
    ):
        problems.append("%s.grid missing or not an object of %slists"
                        % (where, "" if allow_empty else "non-empty "))
        return None
    size = 1
    for values in grid.values():
        size *= max(len(values), 1)
    return size


def _head(fmt, *names):
    """A printed table's header line and the rule under it."""
    header = fmt % names
    return [header, "-" * len(header)]


def _blocks(blocks):
    """Blocks of lines, a blank line between two blocks."""
    return "\n\n".join("\n".join(lines) for lines in blocks)


def _shares(value, counts, total, scale):
    """One ``name value share%`` row per entry, largest first (``value``
    formats ``count / scale``), or one ``(none)`` row."""
    rows = ["%-14s %s %7.1f%%" % (key, value % (counts[key] / scale),
                                  100.0 * (counts[key] / total if total
                                           else 0.0))
            for key in sorted(counts, key=lambda c: (-counts[c], c))]
    return rows or ["%-14s %s %8s" % ("(none)", value % 0, "-")]


# ----------------------------------------------------------------------
# the document
# ----------------------------------------------------------------------

#: Header fields (besides ``schema``); ``sites`` and ``counters`` are
#: also sections.
_HEADER = {"generator": STR, "scenario": STR, "virtual_time": NUM,
           "sites": OBJ, "counters": OBJ, "spans": OBJ}


def validate_report(doc) -> int:
    """Validate a report document; returns the number of metric
    summaries checked.  Raises :class:`SchemaError` on any violation."""
    if not isinstance(doc, dict):
        _fail(["top level is %s, expected object" % type(doc).__name__])
    if doc.get("schema") != SCHEMA_ID:
        _fail(["schema is %r; only %r is accepted"
               % (doc.get("schema"), SCHEMA_ID)])
    problems = []
    header = _typed(problems, "report", doc, _HEADER)
    if "spans" in header:
        _typed(problems, "spans", header["spans"],
               dict.fromkeys(SPAN_FIELDS, INT), optional=("instants",))
    for key in sorted(doc, key=str):
        if key != "schema" and key not in _HEADER and key not in SECTIONS:
            problems.append("report[%r] is neither a header field nor a "
                            "declared section" % (key,))
    for name, section in SECTIONS.items():
        if name in header or (name not in _HEADER and name in doc
                              and _obj(problems, name, doc[name])):
            section.check(problems, doc[name])
    if problems:
        _fail(problems)
    return sum(map(len, doc["sites"].values()))


# ----------------------------------------------------------------------
# sites and counters
# ----------------------------------------------------------------------

#: The fields of a quantile-sketch summary.
_SUMMARY = dict.fromkeys(("rel_err", "sum", "min", "max", "mean",
                          "p50", "p95", "p99", "p999"), NUM)
_SUMMARY.update(count=INT, max_buckets=INT, zeros=INT, collapsed=INT,
                buckets=INT_MAP)

#: Sketch-summary fields a diff compares per (site, metric).
SUMMARY_FIELDS = ("count", "mean", "p50", "p95", "p99", "max")


def _check_summary(problems, where, summary):
    """One :meth:`~repro.obs.sketch.QuantileSketch.to_summary` -- a
    ``sites`` metric or a ``sketches`` entry: exact stats, monotone
    quantiles within [min, max], and bucket counts that account for
    every sample."""
    good = _typed(problems, where, summary, _SUMMARY)
    if {"count", "zeros", "collapsed", "buckets"} <= good.keys():
        total = (sum(good["buckets"].values()) + good["zeros"]
                 + good["collapsed"])
        if total != good["count"]:
            problems.append("%s: buckets + zeros + collapsed = %d, count = %d"
                            % (where, total, good["count"]))
    order = ("min", "p50", "p95", "p99", "p999", "max")
    if all(key in good for key in order):
        lo, p50, p95, p99, p999, hi = (good[key] for key in order)
        if not lo - 1e-12 <= p50 <= p95 <= p99 <= p999 <= hi + 1e-12:
            problems.append("%s: quantiles not monotone within [min, max]"
                            % where)


def _check_sites(problems, sites):
    """Per-site metric summaries, and the required metric families
    across the union of sites."""
    seen = set()
    for _site, site_label, metrics in _each(problems, "sites", sites):
        for name, label, summary in _each(problems, site_label, metrics):
            seen.add(name)
            _check_summary(problems, label, summary)
    # Grid allowance: a report with an *empty* sites object is a grid
    # document whose clusters ran cell-locally (the scaling sweep), so
    # no merged lock/rpc/disk/commit latencies exist.
    if sites:
        for name in REQUIRED_METRICS:
            if name not in seen:
                problems.append("required metric %r missing from every site"
                                % name)


def _sites_leaves(sites):
    for site, metrics in sites.items():
        for name, summary in metrics.items():
            for field in SUMMARY_FIELDS:
                path = "sites.%s.%s.%s" % (site, name, field)
                yield path, path, summary[field]


def _render_sites(sites):
    """The per-site latency breakdown (times in ms)."""
    lines = _head("%-6s %-18s %8s %10s %10s %10s %10s", "site", "metric",
                  "count", "p50ms", "p95ms", "p99ms", "maxms")
    for site, metrics in sites.items():
        for name, s in metrics.items():
            if name.endswith(".bytes") or name.startswith("disk.qdepth"):
                continue  # not a latency; present in the JSON, not here
            lines.append("%-6s %-18s %8d %10.3f %10.3f %10.3f %10.3f" % (
                site, name, s["count"], s["p50"] * 1e3, s["p95"] * 1e3,
                s["p99"] * 1e3, s["max"] * 1e3))
    return "\n".join(lines)


def _check_counters(problems, counters):
    _typed(problems, "counters", counters, dict.fromkeys(counters, INT_MAP))


def _counters_leaves(counters):
    for site, values in counters.items():
        for name, value in values.items():
            path = "counters.%s.%s" % (site, name)
            yield path, path, value


def _render_lock_cache(counters):
    """Per-site lock-cache effectiveness: hits, misses, hit rate,
    recalls, piggybacked refreshes, and messages saved.  Empty when no
    site recorded any lock-cache counter (cache off)."""
    rows = []
    for site, values in counters.items():
        hit, miss, recall, refresh, saved = (
            values.get("lock.cache." + key, 0)
            for key in ("hit", "miss", "recall", "refresh", "msgs_saved"))
        if not (hit or miss or recall or refresh or saved):
            continue
        rate = "%6.1f%%" % (100.0 * hit / (hit + miss)) if hit + miss else "     --"
        rows.append("%-6s %8d %8d %8s %8d %8d %10d" % (
            site, hit, miss, rate, recall, refresh, saved,
        ))
    return "\n".join(_head("%-6s %8s %8s %8s %8s %8s %10s", "site", "hit",
                           "miss", "hitrate", "recall", "refresh",
                           "msgs-saved") + rows) if rows else ""


# ----------------------------------------------------------------------
# throughput
# ----------------------------------------------------------------------

#: Numeric fields every throughput run (batching on or off) must carry.
_THROUGHPUT_RUN_NUMBERS = (
    "txns", "virtual_seconds", "commits_per_sec",
    "commit_p50_ms", "commit_p95_ms",
    "log_ios_physical", "log_ios_logical",
    "phase2_messages",
)

#: The throughput table's rows: label, run field, format.
_THROUGHPUT_ROWS = (
    ("txns committed", "txns", "%d"),
    ("virtual seconds", "virtual_seconds", "%.4f"),
    ("commits/sim-sec", "commits_per_sec", "%.2f"),
    ("commit p50 (ms)", "commit_p50_ms", "%.2f"),
    ("commit p95 (ms)", "commit_p95_ms", "%.2f"),
    ("log I/Os (physical)", "log_ios_physical", "%d"),
    ("log I/Os (logical)", "log_ios_logical", "%d"),
    ("log I/Os / commit", "log_ios_per_commit", "%.2f"),
    ("phase-2 messages", "phase2_messages", "%d"),
    ("phase-2 msgs / commit", "phase2_messages_per_commit", "%.2f"),
    ("group-commit batched", "group_batched", "%d"),
    ("read-only skips", "ro_skips", "%d"),
    ("phase-2 coalesced", "phase2_coalesced", "%d"),
)


def _check_throughput(problems, section):
    """The commit-batching on/off comparison (docs/COMMIT_BATCHING.md)."""
    runs = _typed(problems, "throughput", section, {
        "batching_on": OBJ, "batching_off": OBJ, "speedup": NUM,
    })
    for key in ("batching_on", "batching_off"):
        if key in runs:
            _typed(problems, "throughput.%s" % key, runs[key],
                   dict.fromkeys(_THROUGHPUT_RUN_NUMBERS, NUM))


def _throughput_leaves(section):
    for run in ("batching_on", "batching_off"):
        for name, value in section[run].items():
            if _is_num(value):
                path = "throughput.%s.%s" % (run, name)
                yield path, path, value
    yield "throughput.speedup", "throughput.speedup", section["speedup"]


def _render_throughput(section):
    """The batching on/off comparison."""
    on, off = section.get("batching_on", {}), section.get("batching_off", {})
    lines = _head("%-24s %12s %12s", "", "batching=on", "batching=off")
    for label, key, fmt in _THROUGHPUT_ROWS:
        lines.append("%-24s %12s %12s" % (
            label, fmt % on.get(key, 0), fmt % off.get(key, 0),
        ))
    lines.append("%-24s %12s" % ("speedup", "%.2fx" % section.get("speedup", 0.0)))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# the blame table's views: critpath, contention, aborts, waste, hotness
# ----------------------------------------------------------------------

def _check_critpath(problems, section):
    """Per-transaction blame: each transaction's (and each commit
    window's) per-category nanoseconds sum *exactly* to its total."""
    good = _typed(problems, "critpath", section, {
        "transactions": LIST, "categories": INT_MAP,
        "commit_categories": INT_MAP, "top": LIST,
    })
    for where, txn, _ in _objects(problems, "critpath.transactions",
                                  good.get("transactions", ()), {}):
        _category_sum(problems, where, txn, "total_ns")
        commit = txn.get("commit")
        if commit is not None and _obj(problems, where + ".commit", commit):
            _category_sum(problems, where + ".commit", commit, "total_ns")
            _typed(problems, where + ".commit", commit, {"latency_s": NUM})


def _render_critpath(section):
    """Critical-path blame (times in ms): aggregate category totals, one
    row per transaction, and the slowest transactions' span-by-span
    drill-down."""
    blocks = []
    cats = section.get("categories", {})
    ccats = section.get("commit_categories", {})
    if cats:
        blocks.append(_head("%-12s %12s %12s", "category", "totalms",
                            "commitms") + [
            "%-12s %12.3f %12.3f" % (cat, cats[cat] / 1e6,
                                     ccats.get(cat, 0) / 1e6)
            for cat in sorted(cats, key=lambda c: (-cats[c], c))])
    txns = section.get("transactions", ())
    if txns:
        lines = _head("%-6s %-5s %-10s %12s %12s  %s", "tid", "site",
                      "status", "totalms", "commitms", "dominant")
        for txn in txns:
            categories = txn.get("categories", {})
            dominant = (max(categories, key=lambda c: (categories[c], c))
                        if categories else "--")
            commit_ns = (txn.get("commit") or {}).get("total_ns", 0)
            lines.append("%-6s %-5s %-10s %12.3f %12.3f  %s" % (
                txn.get("tid"), txn.get("site"), txn.get("status"),
                txn.get("total_ns", 0) / 1e6, commit_ns / 1e6, dominant,
            ))
        blocks.append(lines)
    for entry in section.get("top", ()):
        blocks.append(["slowest txn %s (%.3f ms):" % (
            entry.get("tid"), entry.get("total_ns", 0) / 1e6,
        )] + ["  %-28s %-12s %10.3f ms" % (
            step["span"], step["category"], step["self_ns"] / 1e6,
        ) for step in entry.get("steps", ())])
    return _blocks(blocks)


def _check_contention(problems, section):
    """Resource and waits-for attribution (docs/OBSERVABILITY.md)."""
    spec = {"range_bucket": INT}
    for key in ("lock_resources", "disk_resources", "edges"):
        spec[key] = LIST
        spec[key + "_total"] = INT
    _typed(problems, "contention", section, spec)


def _render_contention(section):
    """Lock resources, disk queues and waits-for edges (times in ms)."""
    blocks = []
    locks = section.get("lock_resources", ())
    if locks:
        lines = _head("%-6s %-14s %-16s %6s %10s %10s  %s", "site", "file",
                       "range", "waits", "totalms", "maxms", "top blocker")
        for entry in locks:
            blockers = entry.get("blockers") or ()
            top_blocker = (
                "%s (%.3f ms)" % (blockers[0]["holder"],
                                  blockers[0]["blocked_ns"] / 1e6)
                if blockers else "--"
            )
            lines.append("%-6s %-14s %-16s %6d %10.3f %10.3f  %s" % (
                entry["site"], entry["file"],
                "[%d, %d)" % tuple(entry["range"]), entry["waits"],
                entry["total_ns"] / 1e6, entry["max_ns"] / 1e6, top_blocker,
            ))
        blocks.append(lines)
    disks = [e for e in section.get("disk_resources", ()) if e["queued_ns"]]
    if disks:
        blocks.append(_head("%-6s %-8s %-22s %6s %10s %10s", "site", "disk",
                            "category", "ios", "queued", "queuedms") + [
            "%-6s %-8s %-22s %6d %10d %10.3f" % (
                entry["site"], entry["disk"], entry["category"],
                entry["ios"], entry["queued_ios"], entry["queued_ns"] / 1e6)
            for entry in disks])
    edges = section.get("edges", ())
    if edges:
        blocks.append(_head("%-12s %-12s %6s %10s", "waiter", "blocker",
                            "count", "totalms") + [
            "%-12s %-12s %6d %10.3f" % (entry["waiter"], entry["blocker"],
                                         entry["count"],
                                         entry["total_ns"] / 1e6)
            for entry in edges])
    return _blocks(blocks)


def _known_causes(problems, where, mapping, known):
    for cause in sorted(mapping):
        if cause not in known:
            problems.append("%s[%r] is not a known cause %r"
                            % (where, cause, known))


def _check_aborts(problems, section):
    """Abort provenance: the taxonomy is closed and per-cause counts sum
    to ``total`` (every abort carries exactly one cause)."""
    good = _typed(problems, "aborts", section, {
        "total": INT, "causes": INT_MAP, "by_site": INT_MAP,
        "retries": OBJ, "storm": OBJ,
    })
    total = good.get("total")
    if "causes" in good:
        _known_causes(problems, "aborts.causes", good["causes"], CAUSES)
        counted = sum(good["causes"].values())
        if total is not None and counted != total:
            problems.append("aborts: cause counts sum to %d, total is %d"
                            % (counted, total))
    if "retries" in good:
        spec = dict.fromkeys(("successes", "retried_successes", "attempts",
                              "max_chain", "abandoned"), INT)
        spec["retries_per_success"] = NUM
        _typed(problems, "aborts.retries", good["retries"], spec)
    if "storm" in good:
        storm = _typed(problems, "aborts.storm", good["storm"],
                       {"window_s": NUM, "peak": INT, "at": NUM})
        if "peak" in storm and total is not None and storm["peak"] > total:
            problems.append("aborts.storm.peak %d exceeds total %d"
                            % (storm["peak"], total))


def _render_aborts(section):
    """Abort counts by cause, retry chains and the storm peak."""
    total = section.get("total", 0)
    retries = section.get("retries", {})
    storm = section.get("storm", {})
    lines = _head("%-14s %8s %8s", "cause", "count", "share")
    lines += _shares("%8d", section.get("causes", {}), total, 1)
    lines.append("")
    lines.append(
        "aborts=%d  retries/success=%.2f  max_chain=%d  abandoned=%d  "
        "storm_peak=%d/%gs" % (
            total, retries.get("retries_per_success", 0.0),
            retries.get("max_chain", 0), retries.get("abandoned", 0),
            storm.get("peak", 0), storm.get("window_s", STORM_WINDOW),
        ))
    return "\n".join(lines)


def _check_waste(problems, section):
    """The wasted-work ledger, exactly (integer arithmetic, no
    tolerance): per-category and per-cause wasted nanoseconds and
    per-cause attempts sum to the totals, and the goodput fraction is
    committed / (committed + wasted)."""
    good = _category_sum(problems, "waste", section, "wasted_ns")
    good.update(_typed(problems, "waste", section, {
        "attempts": INT, "committed_ns": INT, "goodput_fraction": NUM,
        "by_cause": OBJ, "by_mix": INT_MAP, "hot_ranges": LIST,
    }))
    goodput = good.get("goodput_fraction")
    if goodput is not None:
        if not 0.0 <= goodput <= 1.0:
            problems.append("waste.goodput_fraction %r outside [0, 1]"
                            % goodput)
        elif {"wasted_ns", "committed_ns"} <= good.keys():
            total = good["wasted_ns"] + good["committed_ns"]
            expected = good["committed_ns"] / total if total else 1.0
            if abs(goodput - expected) > 1e-12:
                problems.append(
                    "waste.goodput_fraction %.12f != committed/(committed+"
                    "wasted) %.12f" % (goodput, expected))
    if "by_cause" in good:
        by_cause = good["by_cause"]
        # ``unclassified``: a waste ledger computed without provenance.
        _known_causes(problems, "waste.by_cause", by_cause,
                      CAUSES + ("unclassified",))
        rows = [_typed(problems, label, entry,
                       {"attempts": INT, "wasted_ns": INT})
                for _c, label, entry in _each(problems, "waste.by_cause",
                                              by_cause)]
        if all(len(row) == 2 for row in rows) and len(rows) == len(by_cause):
            for key in ("wasted_ns", "attempts"):
                if key in good and sum(r[key] for r in rows) != good[key]:
                    problems.append("waste: by_cause %s do not sum to %s"
                                    % (key, key))
    _objects(problems, "waste.hot_ranges", good.get("hot_ranges", ()),
             {"file": STR, "range_start": INT, "wasted_ns": INT})


def _render_waste(section):
    """Wasted work by category and by cause (times in ms)."""
    wasted = section.get("wasted_ns", 0)
    lines = _head("%-14s %12s %8s", "category", "wasted_ms", "share")
    lines += _shares("%12.3f", section.get("categories", {}), wasted, 1e6)
    lines.append("")
    causes = section.get("by_cause", {})
    for cause in sorted(causes, key=lambda c: (-causes[c]["wasted_ns"], c)):
        entry = causes[cause]
        lines.append("cause %-12s attempts=%-5d wasted=%.3f ms" % (
            cause, entry["attempts"], entry["wasted_ns"] / 1e6))
    lines.append(
        "aborted_attempts=%d  wasted=%.3f ms  goodput=%.4f" % (
            section.get("attempts", 0), wasted / 1e6,
            section.get("goodput_fraction", 1.0)))
    return "\n".join(lines)


def _check_hotness(problems, section):
    """Windowed contention hotness: every top row's score series has
    exactly ``windows`` samples, the final sample equals the headline
    score, and the per-window ranking has one entry list per window."""
    good = _typed(problems, "hotness", section, {
        "window_s": NUM, "windows": INT, "alpha": NUM, "abort_weight": NUM,
        "keys": INT, "top": LIST, "ranking": LIST,
    })
    _positive(problems, "hotness", good, "window_s", "windows")
    windows = good.get("windows")
    for where, _row, f in _objects(problems, "hotness.top",
                                   good.get("top", ()), {
            "site": STR, "file": STR, "range_start": INT, "score": NUM,
            "peak_score": NUM, "wait_s": NUM, "aborts": INT,
            "scores": NUM_LIST}):
        scores = f.get("scores")
        if scores is None:
            continue
        if windows is not None and len(scores) != windows:
            problems.append("%s.scores has %d samples, expected %d"
                            % (where, len(scores), windows))
        if scores and "score" in f and abs(scores[-1] - f["score"]) > 1e-6:
            problems.append("%s: final scores sample disagrees with "
                            "headline score" % where)
    ranking = good.get("ranking")
    if ranking is None:
        return
    if not all(STR_LIST.test(entry) for entry in ranking):
        problems.append("hotness.ranking is not a list of string lists")
    elif windows is not None and len(ranking) != windows:
        problems.append("hotness.ranking has %d windows, expected %d"
                        % (len(ranking), windows))


def _render_hotness(section):
    """The hottest ranges' windowed contention scores."""
    lines = _head("%-6s %-18s %10s %10s %8s %7s", "site", "file:range",
                  "score", "peak", "wait_ms", "aborts")
    for row in section.get("top", []):
        lines.append("%-6s %-18s %10.4f %10.4f %8.1f %7d" % (
            row["site"],
            "%s:%d" % (row["file"], row["range_start"]),
            row["score"], row["peak_score"],
            row["wait_s"] * 1e3, row["aborts"]))
    if not section.get("top"):
        lines.append("(no contention recorded)")
    lines.append("windows=%d x %gs  keys=%d  alpha=%g" % (
        section.get("windows", 0), section.get("window_s", 0.0),
        section.get("keys", 0), section.get("alpha", 0.0)))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# monitors, slo, timeline
# ----------------------------------------------------------------------

def _check_monitors(problems, section):
    """Runtime protocol verification: per-check violation counts sum to
    the total."""
    good = _typed(problems, "monitors", section, {
        "strict": BOOL, "events": INT, "total_violations": INT,
        "checks": STR_LIST, "violation_counts": INT_MAP, "violations": LIST,
    })
    if {"violation_counts", "total_violations"} <= good.keys() and sum(
        good["violation_counts"].values()
    ) != good["total_violations"]:
        problems.append("monitors: violation_counts do not sum to "
                        "total_violations")
    _objects(problems, "monitors.violations", good.get("violations", ()),
             {"check": STR, "message": STR, "ts": NUM})


def _render_monitors(section):
    """The monitor verdict, one line per violation."""
    return "\n".join(["events: %d   checks: %d   violations: %d%s" % (
        section["events"], len(section["checks"]),
        section["total_violations"],
        "   (strict)" if section["strict"] else "",
    )] + ["  [%s] %s" % (violation["check"], violation["message"])
          for violation in section["violations"]])


def _check_slo(problems, section):
    """Per-mix error-budget burn: each objective's burn equals
    (bad/total)/budget, ``ok`` means burn <= 1.0, and every series has
    one sample per declared window."""
    good = _typed(problems, "slo", section, {
        "window": NUM, "windows": INT, "until": NUM, "worst_burn": NUM,
        "total_breaches": INT, "ok": BOOL, "mixes": OBJ,
    })
    _positive(problems, "slo", good, "window", "windows")
    windows = good.get("windows")
    for _mix, where, entry in _each(problems, "slo.mixes",
                                    good.get("mixes", {})):
        rows = _typed(problems, where, entry,
                      {"ok": BOOL, "worst_burn": NUM, "objectives": LIST})
        for label, _row, f in _objects(
                problems, where + ".objectives", rows.get("objectives", ()), {
                    "name": STR, "metric": STR, "kind": STR, "bound": NUM,
                    "budget": NUM, "burn": NUM, "worst_burn": NUM, "ok": BOOL,
                    "total": INT, "bad": INT, "series": NUM_LIST}):
            if "series" in f and windows is not None \
                    and len(f["series"]) != windows:
                problems.append("%s.series has %d windows, expected %d"
                                % (label, len(f["series"]), windows))
            if {"budget", "burn", "total", "bad", "ok"} <= f.keys():
                total, burn = f["total"], f["burn"]
                expected = (f["bad"] / total) / f["budget"] if total else 0.0
                if abs(expected - burn) > 1e-9 * max(1.0, expected):
                    problems.append("%s: burn %.6f != (bad/total)/budget %.6f"
                                    % (label, burn, expected))
                if f["ok"] != (burn <= 1.0):
                    problems.append("%s: ok flag disagrees with burn" % label)


def _render_slo(section):
    """Per-mix SLO burn rates (docs/OBSERVABILITY.md, "SLOs and burn
    rates"): one row per objective with its error budget, the overall
    burn, the worst single-window burn, and the verdict."""
    lines = _head("%-10s %-22s %9s %8s %8s %8s %9s %9s  %s", "mix",
                  "objective", "bound", "total", "bad", "budget", "burn",
                  "worstwin", "verdict")
    for mix in sorted(section.get("mixes", {})):
        entry = section["mixes"][mix]
        for row in entry.get("objectives", ()):
            bound = ("%.0fms" % (row["bound"] * 1e3)
                     if row["kind"] == "latency" else "%.1f%%"
                     % (row["bound"] * 100.0))
            lines.append("%-10s %-22s %9s %8d %8d %7.1f%% %9.2f %9.2f  %s" % (
                mix, row["name"], bound, row["total"], row["bad"],
                row["budget"] * 100.0, row["burn"], row["worst_burn"],
                "ok" if row["ok"] else "BREACH",
            ))
    lines.append("worst burn %.2f over %d window(s) of %.2fs -- %s" % (
        section.get("worst_burn", 0.0), section.get("windows", 0),
        section.get("window", 0.0),
        "all objectives hold" if section.get("ok")
        else "%d objective(s) breached" % section.get("total_breaches", 0),
    ))
    return "\n".join(lines)


def _check_timeline(problems, section):
    """Gauge/rate series on one tick grid: every gauge series has
    exactly ``ticks + 1`` samples (one per tick boundary, t=0 included)
    and every rate series exactly ``ticks`` buckets."""
    good = _typed(problems, "timeline", section, {
        "tick": NUM, "ticks": INT, "points": INT, "dropped": INT,
        "until": NUM, "sites": OBJ,
    })
    _positive(problems, "timeline", good, "tick", "ticks")
    ticks = good.get("ticks")
    lengths = {"gauges": None if ticks is None else ticks + 1,
               "rates": ticks}
    for _site, where, series in _each(problems, "timeline.sites",
                                      good.get("sites", {})):
        groups = _typed(problems, where, series, {
            "gauges": OBJ, "rates": OBJ, "peaks": NUM_MAP, "totals": NUM_MAP,
        })
        for group, expected in lengths.items():
            values = groups.get(group, {})
            good_series = _typed(problems, "%s.%s" % (where, group), values,
                                 dict.fromkeys(values, NUM_LIST))
            for name, samples in sorted(good_series.items()):
                if expected is not None and len(samples) != expected:
                    problems.append("%s.%s[%r] has %d samples, expected %d"
                                    % (where, group, name, len(samples),
                                       expected))


def _render_timeline(section):
    return "%d ticks x %.3fs over %d site(s): %d points (%d dropped)" % (
        section["ticks"], section["tick"], len(section["sites"]),
        section["points"], section["dropped"],
    )


# ----------------------------------------------------------------------
# the grid documents: matrix and scaling
# ----------------------------------------------------------------------

def _check_matrix(problems, section):
    """The scenario-matrix runner: the cell list covers exactly the
    cross product of the declared grid axes and each cell carries its
    scenario outcome."""
    size = _grid_size(problems, "matrix", section, allow_empty=True)
    good = _typed(problems, "matrix", section, {"cells": LIST})
    cells = good.get("cells", [])
    if size is not None and "cells" in good and len(cells) != size:
        problems.append("matrix: %d cells for a %d-cell grid"
                        % (len(cells), size))
    _objects(problems, "matrix.cells", cells, {
        "scenario": STR, "lock_cache": BOOL, "commit_batching": BOOL,
        "virtual_time": NUM, "monitors_total_violations": INT,
    })


def _render_matrix(section):
    """One row per grid cell: features, scenario outcome."""
    lines = _head("%-10s %5s %5s %12s %8s %6s", "scenario", "cache", "batch",
                  "virtualtime", "spans", "viol")
    for cell in section["cells"]:
        lines.append("%-10s %5s %5s %12.4f %8d %6d" % (
            cell["scenario"],
            "on" if cell["lock_cache"] else "off",
            "on" if cell["commit_batching"] else "off",
            cell["virtual_time"],
            cell["spans_recorded"],
            cell["monitors_total_violations"],
        ))
    return "\n".join(lines)


#: Numeric fields every scaling cell must carry.
_SCALING_CELL_NUMBERS = (
    "theta", "committed", "aborted", "retries", "abort_rate",
    "virtual_seconds", "commits_per_sec", "p50_ms", "p95_ms", "p99_ms",
)

#: Client-axis curves at the reference corner, keyed ``c<N>``; the
#: first three are required.
SCALING_CURVES = ("commits_per_sec", "abort_rate", "p99_ms", "p999_ms",
                  "goodput_fraction")

#: Per-cell fields a scaling cell may carry (absent or null is fine).
_SCALING_CELL_OPTIONAL = {
    "p999_ms": NUM, "mixes": OBJ, "slo": OBJ, "goodput_fraction": NUM,
    "dominant_abort_cause": STR, "hot_ranges": LIST, "waste": OBJ,
}

#: Every field of a scaling cell.
_SCALING_CELL = dict.fromkeys(_SCALING_CELL_NUMBERS, NUM)
_SCALING_CELL.update(sites=INT, clients=INT, monitors_total_violations=INT,
                     **_SCALING_CELL_OPTIONAL)

#: Per-cell numbers a diff compares (the host-independent virtual
#: metrics; wall time never enters a report).
_SCALING_DIFF_NUMBERS = ("committed", "aborted", "retries", "abort_rate",
                         "virtual_seconds", "commits_per_sec", "p99_ms")


def _check_scaling(problems, section):
    """The sites x clients x skew sweep (docs/WORKLOADS.md): the cell
    list covers exactly the grid's cross product, every cell carries its
    virtual-time stats (and its waste ledger sums exactly), and the
    reference corner's client-axis curves have one ``c<N>`` entry per
    declared client count."""
    size = _grid_size(problems, "scaling", section, allow_empty=False)
    good = _typed(problems, "scaling", section,
                  {"cells": LIST, "reference": OBJ})
    cells = good.get("cells", [])
    if size is not None and "cells" in good and len(cells) != size:
        problems.append("scaling: %d cells for a %d-cell grid"
                        % (len(cells), size))
    for where, _cell, fields in _objects(problems, "scaling.cells", cells,
                                         _SCALING_CELL,
                                         optional=_SCALING_CELL_OPTIONAL):
        goodput = fields.get("goodput_fraction")
        if goodput is not None and not 0.0 <= goodput <= 1.0:
            problems.append("%s.goodput_fraction %r outside [0, 1]"
                            % (where, goodput))
        if "mixes" in fields:
            _typed(problems, where + ".mixes", fields["mixes"],
                   dict.fromkeys(fields["mixes"], NUM_MAP))
        for _mix, label, verdict in _each(problems, where + ".slo",
                                          fields.get("slo", {})):
            _typed(problems, label, verdict, {"ok": BOOL, "worst_burn": NUM})
        _objects(problems, where + ".hot_ranges",
                 fields.get("hot_ranges", ()),
                 {"file": STR, "range_start": INT})
        if "waste" in fields:
            _category_sum(problems, where + ".waste", fields["waste"],
                          "wasted_ns")
    reference = good.get("reference")
    if reference is None:
        return
    clients = None if size is None else section["grid"].get("clients")
    expected = None if clients is None else sorted(
        "c%d" % c for c in clients if _is_int(c))
    curves = _typed(problems, "scaling.reference", reference,
                    dict.fromkeys(SCALING_CURVES[:3], NUM_MAP))
    for key, curve in sorted(curves.items()):
        if expected is not None and sorted(curve) != expected:
            problems.append("scaling.reference[%r] keys %s do not match "
                            "grid clients %s" % (key, sorted(curve), expected))


def _scaling_leaves(section):
    """The reference curves' points, and each cell's numbers paired
    across documents by the cell's grid point."""
    for key, curve in section["reference"].items():
        if isinstance(curve, dict):
            for label, value in curve.items():
                if _is_num(value):
                    path = "scaling.reference.%s.%s" % (key, label)
                    yield path, path, value
    for i, cell in enumerate(section["cells"]):
        point = "scaling.cells[s%s.c%s.t%g]" % (
            cell["sites"], cell["clients"], cell["theta"])
        for name in _SCALING_DIFF_NUMBERS:
            yield ("%s.%s" % (point, name), "scaling.cells.%d.%s" % (i, name),
                   cell[name])


def _render_scaling(section):
    """One row per grid cell (virtual-time numbers)."""
    lines = _head("%5s %7s %5s %9s %7s %7s %9s %9s %8s %8s %8s %-12s %9s",
                  "sites", "clients", "theta", "committed", "aborts",
                  "abort%", "virt-sec", "cmt/sec", "p99ms", "p999ms",
                  "goodput", "cause", "slo")
    for cell in section["cells"]:
        verdicts = (cell.get("slo") or {}).values()
        slo = ("--" if not verdicts else "ok" if all(v["ok"] for v in verdicts)
               else "burn=%.1f" % max(v["worst_burn"] for v in verdicts))
        goodput = cell.get("goodput_fraction")
        goodput = "--" if goodput is None else "%6.1f%%" % (100.0 * goodput)
        lines.append(
            "%5d %7d %5.2f %9d %7d %6.1f%% %9.2f %9.2f %8.2f %8.2f %8s "
            "%-12s %9s"
            % (
                cell["sites"], cell["clients"], cell["theta"],
                cell["committed"], cell["aborted"],
                100.0 * cell["abort_rate"],
                cell["virtual_seconds"], cell["commits_per_sec"],
                cell["p99_ms"], cell.get("p999_ms", 0.0), goodput,
                cell.get("dominant_abort_cause") or "--", slo,
            ))
    # Per-mix sketch tails: the fleet view of every mix that recorded
    # sketch samples anywhere in the grid (one line per cell x mix).
    mix_lines = []
    for cell in section["cells"]:
        for mix, q in sorted((cell.get("mixes") or {}).items()):
            mix_lines.append(
                "  s%d c%d t%.2f %-10s p50=%.2fms p95=%.2fms "
                "p99=%.2fms p999=%.2fms (n=%d)" % (
                    cell["sites"], cell["clients"], cell["theta"], mix,
                    q["p50_ms"], q["p95_ms"], q["p99_ms"], q["p999_ms"],
                    q["count"],
                ))
    if mix_lines:
        lines.append("")
        lines.append("per-mix sketch tails (client.latency):")
        lines.extend(mix_lines)
    ref = section["reference"]
    lines.append("")
    lines.append("reference (sites=%d theta=%.2f): %s" % (
        ref["sites"], ref["theta"],
        "  ".join(
            "%s[%s]=%.2f" % (key, label, ref[key][label])
            for key in SCALING_CURVES
            if isinstance(ref.get(key), dict)
            for label in sorted(ref[key], key=lambda s: int(s[1:]))
        ),
    ))
    # The saturated corner cell's abort story: what killed its aborted
    # attempts and where the contention lived (v9 provenance).
    big = max(
        (c for c in section["cells"]
         if c["sites"] == ref["sites"] and c["theta"] == ref["theta"]),
        key=lambda c: c["clients"], default=None)
    if big is not None and (big.get("dominant_abort_cause")
                            or big.get("hot_ranges")):
        ranges = ", ".join(
            "%s:%d" % (r["file"], r["range_start"])
            for r in big.get("hot_ranges") or ()) or "--"
        lines.append("c%d aborts: dominant cause %s; hot ranges %s" % (
            big["clients"], big.get("dominant_abort_cause") or "none",
            ranges))
    ref_slo = ref.get("slo") or {}
    if ref_slo:
        lines.append("knee vs SLO: %s" % "  ".join(
            "%s=%s" % (label,
                       "ok" if ref_slo[label]["ok"]
                       else "BREACH(burn=%.1f)" % ref_slo[label]["worst_burn"])
            for label in sorted(ref_slo, key=lambda s: int(s[1:]))
        ))
    return "\n".join(lines)


def _check_sketches(problems, section):
    """Per-mix quantile sketches: {site: {mix: {metric: summary}}}."""
    for _site, site_label, mixes in _each(problems, "sketches", section):
        for _mix, mix_label, metrics in _each(problems, site_label, mixes):
            for _name, label, summary in _each(problems, mix_label, metrics):
                _check_summary(problems, label, summary)


# ----------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------

#: One top-level section: ``check(problems, section)`` records every
#: problem; ``render(section)`` is its printed table (None: nothing
#: prints it), printed by the report CLI under ``== title ==`` ("": no
#: heading; None: only the grid CLI of the same name prints it);
#: ``leaves(section)`` yields ``(key, path, value)`` for every number a
#: diff compares (None: none) -- ``key`` pairs a leaf across two
#: documents and ``path`` is its ``--fail-on`` spelling in this one.
Section = namedtuple("Section", "name check title render leaves")

#: Every section, in the order the report CLI prints them.
SECTIONS = {section.name: section for section in (
    Section("sites", _check_sites, "", _render_sites, _sites_leaves),
    Section("counters", _check_counters, "lock cache", _render_lock_cache,
            _counters_leaves),
    Section("throughput", _check_throughput, "commit throughput",
            _render_throughput, _throughput_leaves),
    Section("critpath", _check_critpath, "critical path", _render_critpath,
            None),
    Section("contention", _check_contention, "contention",
            _render_contention, None),
    Section("aborts", _check_aborts, "aborts", _render_aborts, None),
    Section("waste", _check_waste, "waste", _render_waste, None),
    Section("hotness", _check_hotness, "hotness", _render_hotness, None),
    Section("monitors", _check_monitors, "monitors", _render_monitors, None),
    Section("slo", _check_slo, "slo", _render_slo, None),
    Section("timeline", _check_timeline, "timeline", _render_timeline, None),
    Section("matrix", _check_matrix, None, _render_matrix, None),
    Section("scaling", _check_scaling, None, _render_scaling,
            _scaling_leaves),
    Section("sketches", _check_sketches, None, None, None),
)}


def _main(argv=None):
    import argparse
    import json

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.schema",
        description="Validate a BENCH_report.json against %s." % SCHEMA_ID,
    )
    parser.add_argument("report", help="path to the report JSON file")
    args = parser.parse_args(argv)
    try:
        with open(args.report) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        print("error: cannot read %s: %s" % (args.report, exc),
              file=sys.stderr)
        return 2
    try:
        checked = validate_report(doc)
    except SchemaError as exc:
        print("invalid: %s: %s" % (args.report, exc), file=sys.stderr)
        return 1
    print("%s: OK (%d metric summaries validated)" % (args.report, checked))
    return 0


if __name__ == "__main__":
    sys.exit(_main())
