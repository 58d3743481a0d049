"""The ``BENCH_report.json`` schema and its validator.

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

from collections import namedtuple

from .provenance import CAUSES

__all__ = ["SCHEMA_ID", "REQUIRED_METRICS", "validate_report", "SchemaError"]

SCHEMA_ID = "repro.bench_report/10"

#: Metric families every report must carry in at least one site
#: (the per-phase breakdown the analysis layer is built on).
REQUIRED_METRICS = ("lock.wait", "rpc.rtt", "disk.io", "commit.latency")


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


def _positive(problems, where, good, key):
    """A checked number that must also be > 0."""
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


# ----------------------------------------------------------------------
# the document
# ----------------------------------------------------------------------

def validate_report(doc) -> int:
    """Validate a report document; returns the number of metric
    summaries checked.  Raises :class:`SchemaError` on any violation."""
    if not isinstance(doc, dict):
        _fail(["top level is %s, expected object" % type(doc).__name__])
    if doc.get("schema") != SCHEMA_ID:
        _fail(["schema is %r; only %r is accepted"
               % (doc.get("schema"), SCHEMA_ID)])
    problems = []
    top = _typed(problems, "report", doc, {
        "generator": STR, "scenario": STR, "virtual_time": NUM,
        "sites": OBJ, "spans": OBJ, "counters": OBJ,
    })
    if "spans" in top:
        spans = top["spans"]
        _typed(problems, "spans", spans,
               {"recorded": INT, "dropped": INT, "traces": INT})
    if "counters" in top:
        _typed(problems, "counters", top["counters"],
               dict.fromkeys(top["counters"], INT_MAP))
    for name, checker in _SECTIONS:
        if name in doc and _obj(problems, name, doc[name]):
            checker(problems, doc[name])

    checked = 0
    seen = set()
    for _site, site_label, metrics in _each(problems, "sites",
                                            top.get("sites", {})):
        for name, label, summary in _each(problems, site_label, metrics):
            seen.add(name)
            checked += 1
            _check_summary(problems, label, summary)
    # Grid allowance: a report with an *empty* sites object is a grid
    # document whose clusters ran cell-locally (the scaling sweep), so
    # no merged lock/rpc/disk/commit latencies exist.
    if top.get("sites"):
        for name in REQUIRED_METRICS:
            if name not in seen:
                problems.append("required metric %r missing from every site"
                                % name)
    if problems:
        _fail(problems)
    return checked


#: The fields of a quantile-sketch summary.
_SUMMARY = dict.fromkeys(("rel_err", "sum", "min", "max", "mean",
                          "p50", "p95", "p99", "p999"), NUM)
_SUMMARY.update(count=INT, max_buckets=INT, zeros=INT, collapsed=INT,
                buckets=INT_MAP)


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


# ----------------------------------------------------------------------
# optional sections (each checker gets a section known to be an object)
# ----------------------------------------------------------------------

#: Numeric fields every throughput run (batching on or off) must carry.
_THROUGHPUT_RUN_NUMBERS = (
    "txns", "virtual_seconds", "commits_per_sec",
    "commit_p50_ms", "commit_p95_ms",
    "log_ios_physical", "log_ios_logical",
    "phase2_messages",
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


def _check_critpath(problems, section):
    """Per-transaction blame: each transaction's (and each commit
    window's) per-category nanoseconds sum *exactly* to its total."""
    good = _typed(problems, "critpath", section, {
        "transactions": LIST, "categories": INT_MAP,
        "commit_categories": INT_MAP, "top": LIST,
    })
    for i, txn in enumerate(good.get("transactions", ())):
        where = "critpath.transactions[%d]" % i
        if not _obj(problems, where, txn):
            continue
        _category_sum(problems, where, txn, "total_ns")
        commit = txn.get("commit")
        if commit is not None and _obj(problems, where + ".commit", commit):
            _category_sum(problems, where + ".commit", commit, "total_ns")
            _typed(problems, where + ".commit", commit, {"latency_s": NUM})


def _check_contention(problems, section):
    """Resource and waits-for attribution (docs/OBSERVABILITY.md)."""
    spec = {"range_bucket": INT}
    for key in ("lock_resources", "disk_resources", "edges"):
        spec[key] = LIST
        spec[key + "_total"] = INT
    _typed(problems, "contention", section, spec)


def _check_timeline(problems, section):
    """Gauge/rate series on one tick grid: every gauge series has
    exactly ``ticks + 1`` samples (one per tick boundary, t=0 included)
    and every rate series exactly ``ticks`` buckets."""
    good = _typed(problems, "timeline", section, {
        "tick": NUM, "ticks": INT, "points": INT, "dropped": INT,
        "until": NUM, "sites": OBJ,
    })
    _positive(problems, "timeline", good, "tick")
    _positive(problems, "timeline", good, "ticks")
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
    for i, violation in enumerate(good.get("violations", ())):
        where = "monitors.violations[%d]" % i
        if _obj(problems, where, violation):
            _typed(problems, where, violation,
                   {"check": STR, "message": STR, "ts": NUM})


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
    for i, cell in enumerate(cells):
        where = "matrix.cells[%d]" % i
        if _obj(problems, where, cell):
            _typed(problems, where, cell, {
                "scenario": STR, "lock_cache": BOOL, "commit_batching": BOOL,
                "virtual_time": NUM, "monitors_total_violations": INT,
            })


#: Numeric fields every scaling cell must carry.
_SCALING_CELL_NUMBERS = (
    "theta", "committed", "aborted", "retries", "abort_rate",
    "virtual_seconds", "commits_per_sec", "p50_ms", "p95_ms", "p99_ms",
)

#: Client-axis curves the reference corner must carry.
_SCALING_CURVES = ("commits_per_sec", "abort_rate", "p99_ms")

#: Per-cell fields a scaling cell may carry (absent or null is fine).
_SCALING_CELL_OPTIONAL = {
    "p999_ms": NUM, "mixes": OBJ, "slo": OBJ, "goodput_fraction": NUM,
    "dominant_abort_cause": STR, "hot_ranges": LIST, "waste": OBJ,
}

#: Every field of a scaling cell.
_SCALING_CELL = dict.fromkeys(_SCALING_CELL_NUMBERS, NUM)
_SCALING_CELL.update(sites=INT, clients=INT, monitors_total_violations=INT,
                     **_SCALING_CELL_OPTIONAL)


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
    for i, cell in enumerate(cells):
        where = "scaling.cells[%d]" % i
        if not _obj(problems, where, cell):
            continue
        fields = _typed(problems, where, cell, _SCALING_CELL,
                        optional=_SCALING_CELL_OPTIONAL)
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
        for j, row in enumerate(fields.get("hot_ranges", ())):
            label = "%s.hot_ranges[%d]" % (where, j)
            if _obj(problems, label, row):
                _typed(problems, label, row, {"file": STR, "range_start": INT})
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
                    dict.fromkeys(_SCALING_CURVES, NUM_MAP))
    for key, curve in sorted(curves.items()):
        if expected is not None and sorted(curve) != expected:
            problems.append("scaling.reference[%r] keys %s do not match "
                            "grid clients %s" % (key, sorted(curve), expected))


def _check_sketches(problems, section):
    """Per-mix quantile sketches: {site: {mix: {metric: summary}}}."""
    for _site, site_label, mixes in _each(problems, "sketches", section):
        for _mix, mix_label, metrics in _each(problems, site_label, mixes):
            for _name, label, summary in _each(problems, mix_label, metrics):
                _check_summary(problems, label, summary)


def _check_slo(problems, section):
    """Per-mix error-budget burn: each objective's burn equals
    (bad/total)/budget, ``ok`` means burn <= 1.0, and every series has
    one sample per declared window."""
    good = _typed(problems, "slo", section, {
        "window": NUM, "windows": INT, "until": NUM, "worst_burn": NUM,
        "total_breaches": INT, "ok": BOOL, "mixes": OBJ,
    })
    _positive(problems, "slo", good, "window")
    _positive(problems, "slo", good, "windows")
    windows = good.get("windows")
    for _mix, where, entry in _each(problems, "slo.mixes",
                                    good.get("mixes", {})):
        rows = _typed(problems, where, entry,
                      {"ok": BOOL, "worst_burn": NUM, "objectives": LIST})
        for i, row in enumerate(rows.get("objectives", ())):
            label = "%s.objectives[%d]" % (where, i)
            if not _obj(problems, label, row):
                continue
            f = _typed(problems, label, row, {
                "name": STR, "metric": STR, "kind": STR, "bound": NUM,
                "budget": NUM, "burn": NUM, "worst_burn": NUM, "ok": BOOL,
                "total": INT, "bad": INT, "series": NUM_LIST,
            })
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
    for i, row in enumerate(good.get("hot_ranges", ())):
        where = "waste.hot_ranges[%d]" % i
        if _obj(problems, where, row):
            _typed(problems, where, row,
                   {"file": STR, "range_start": INT, "wasted_ns": INT})


def _check_hotness(problems, section):
    """Windowed contention hotness: every top row's score series has
    exactly ``windows`` samples, the final sample equals the headline
    score, and the per-window ranking has one entry list per window."""
    good = _typed(problems, "hotness", section, {
        "window_s": NUM, "windows": INT, "alpha": NUM, "abort_weight": NUM,
        "keys": INT, "top": LIST, "ranking": LIST,
    })
    _positive(problems, "hotness", good, "window_s")
    _positive(problems, "hotness", good, "windows")
    windows = good.get("windows")
    for i, row in enumerate(good.get("top", ())):
        where = "hotness.top[%d]" % i
        if not _obj(problems, where, row):
            continue
        f = _typed(problems, where, row, {
            "site": STR, "file": STR, "range_start": INT, "score": NUM,
            "peak_score": NUM, "wait_s": NUM, "aborts": INT,
            "scores": NUM_LIST,
        })
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


#: Optional sections and their checkers, in validation order.
_SECTIONS = (
    ("throughput", _check_throughput),
    ("critpath", _check_critpath),
    ("contention", _check_contention),
    ("timeline", _check_timeline),
    ("monitors", _check_monitors),
    ("matrix", _check_matrix),
    ("scaling", _check_scaling),
    ("sketches", _check_sketches),
    ("slo", _check_slo),
    ("aborts", _check_aborts),
    ("waste", _check_waste),
    ("hotness", _check_hotness),
)


def _main(argv=None):
    import argparse
    import json
    import sys

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
    import sys

    sys.exit(_main())
