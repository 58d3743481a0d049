"""The ``BENCH_report.json`` schema and its validator.

The report is a contract between the simulator and downstream tooling
(CI, dashboards, regression diffing), so the shape is validated rather
than assumed.  The validator is hand-rolled -- the repository has a
no-new-dependencies rule, so ``jsonschema`` is out -- but the checks
are the same in spirit: required keys, types, and the internal
consistency a histogram summary must satisfy (count/bucket agreement,
monotone percentiles).

Run standalone::

    python -m repro.obs.schema BENCH_report.json

A file that cannot be read or is not JSON gets one ``cannot read`` line
and exit code 2 (as from ``repro.analysis.diff``), so it is not mistaken
for a document that violates the schema.
"""

from __future__ import annotations

__all__ = ["SCHEMA_ID", "REQUIRED_METRICS", "validate_report", "SchemaError"]

SCHEMA_ID = "repro.bench_report/9"

_V6 = "repro.bench_report/6"
_V7 = "repro.bench_report/7"
_V8 = "repro.bench_report/8"

#: Schema versions this validator accepts.  v2 added the per-site
#: ``counters`` section (monotonic event counts, e.g. lock-cache hits);
#: v3 added the optional ``throughput`` section (batching on/off commit
#: throughput comparison, docs/COMMIT_BATCHING.md); v4 added the
#: optional ``critpath`` and ``contention`` analysis sections
#: (docs/OBSERVABILITY.md); v5 added the optional ``timeline`` and
#: ``monitors`` sections (time-series telemetry and runtime protocol
#: verification); v6 added the optional ``matrix`` section (the
#: scenario-matrix runner) plus the grid allowance (a v6+ document with
#: an empty ``sites`` object -- a grid whose clusters ran cell-locally,
#: the scaling sweep -- is exempt from the REQUIRED_METRICS rule); v7
#: added the optional ``scaling`` section (the sites x clients x skew
#: sweep, docs/WORKLOADS.md); v8 added the optional ``sketches`` (per-site,
#: per-mix quantile-sketch summaries), ``slo`` (per-mix error-budget
#: burn rates) and ``spans.sampling`` (tail-based trace retention)
#: payloads, plus the optional per-cell ``p999_ms`` / ``mixes`` /
#: ``slo`` fields in scaling cells; v9 added the optional ``aborts``
#: (abort provenance: cause taxonomy, retry chains, storm peaks),
#: ``waste`` (wasted-work ledger with the exact category-sum invariant
#: and the goodput fraction) and ``hotness`` (windowed EWMA contention
#: hotness) sections, plus the optional per-cell ``goodput_fraction`` /
#: ``dominant_abort_cause`` / ``hot_ranges`` / ``waste`` fields in
#: scaling cells.  Older documents remain valid with the newer sections
#: treated as absent.
_ACCEPTED_SCHEMAS = ("repro.bench_report/1", "repro.bench_report/2",
                     "repro.bench_report/3", "repro.bench_report/4",
                     "repro.bench_report/5", _V6, _V7, _V8, SCHEMA_ID)

#: Versions that carry the mandatory ``counters`` section.
_COUNTER_SCHEMAS = ("repro.bench_report/2", "repro.bench_report/3",
                    "repro.bench_report/4", "repro.bench_report/5",
                    _V6, _V7, _V8, SCHEMA_ID)

#: Versions that may carry the optional ``throughput`` section.
_THROUGHPUT_SCHEMAS = ("repro.bench_report/3", "repro.bench_report/4",
                       "repro.bench_report/5", _V6, _V7, _V8, SCHEMA_ID)

#: Versions that may carry the v4 analysis sections.
_ANALYSIS_SCHEMAS = ("repro.bench_report/4", "repro.bench_report/5",
                     _V6, _V7, _V8, SCHEMA_ID)

#: Versions that may carry the v5 telemetry sections.
_TELEMETRY_SCHEMAS = ("repro.bench_report/5", _V6, _V7, _V8, SCHEMA_ID)

#: Versions that may carry the v6 matrix section (and the grid
#: empty-``sites`` allowance).
_MATRIX_SCHEMAS = (_V6, _V7, _V8, SCHEMA_ID)

#: Versions that may carry the v7 scaling section.
_SCALING_SCHEMAS = (_V7, _V8, SCHEMA_ID)

#: Versions that may carry the v8 sketches / slo sections.
_SLO_SCHEMAS = (_V8, SCHEMA_ID)

#: Versions that may carry the v9 provenance sections (``aborts``,
#: ``waste``, ``hotness``) and per-cell goodput/waste fields.
_PROVENANCE_SCHEMAS = (SCHEMA_ID,)

#: Metric families every report must carry in at least one site
#: (the per-phase breakdown the analysis layer is built on).
REQUIRED_METRICS = ("lock.wait", "rpc.rtt", "disk.io", "commit.latency")

_SUMMARY_NUMBERS = ("count", "sum", "min", "max", "mean", "p50", "p95", "p99")


class SchemaError(ValueError):
    """The document does not conform to any accepted schema version."""


def _fail(problems):
    raise SchemaError(
        "invalid bench report (%d problem%s):\n  - %s"
        % (len(problems), "" if len(problems) == 1 else "s",
           "\n  - ".join(problems))
    )


def validate_report(doc) -> int:
    """Validate a report document; returns the number of metric
    summaries checked.  Raises :class:`SchemaError` on any violation."""
    problems = []
    if not isinstance(doc, dict):
        _fail(["top level is %s, expected object" % type(doc).__name__])
    if doc.get("schema") not in _ACCEPTED_SCHEMAS:
        problems.append("schema is %r, expected one of %r"
                        % (doc.get("schema"), _ACCEPTED_SCHEMAS))
    for key, kind in (("generator", str), ("scenario", str),
                      ("virtual_time", (int, float)), ("sites", dict),
                      ("spans", dict)):
        if key not in doc:
            problems.append("missing top-level key %r" % key)
        elif not isinstance(doc[key], kind):
            problems.append("%r is %s, expected %s"
                            % (key, type(doc[key]).__name__, kind))
    if problems:
        _fail(problems)

    spans = doc["spans"]
    for key in ("recorded", "dropped", "traces"):
        if not isinstance(spans.get(key), int):
            problems.append("spans.%s missing or not an integer" % key)
    if "sampling" in spans:
        if doc.get("schema") in _SLO_SCHEMAS:
            problems.extend(_check_sampling(spans["sampling"]))
        else:
            problems.append("spans.sampling requires schema %r or newer"
                            % _SLO_SCHEMAS[0])

    if doc["schema"] in _COUNTER_SCHEMAS:
        counters = doc.get("counters")
        if not isinstance(counters, dict):
            problems.append("counters missing or not an object (v2+ requires it)")
        else:
            for site, values in sorted(counters.items()):
                if not isinstance(values, dict):
                    problems.append("counters[%r] is not an object" % site)
                    continue
                for name, value in sorted(values.items()):
                    if not isinstance(value, int) or isinstance(value, bool):
                        problems.append(
                            "counters[%r][%r] is %s, expected integer"
                            % (site, name, type(value).__name__)
                        )

    if "throughput" in doc:
        if doc["schema"] in _THROUGHPUT_SCHEMAS:
            problems.extend(_check_throughput(doc["throughput"]))
        else:
            problems.append("throughput section requires schema %r or newer"
                            % _THROUGHPUT_SCHEMAS[0])

    for section, checker, versions in (
        ("critpath", _check_critpath, _ANALYSIS_SCHEMAS),
        ("contention", _check_contention, _ANALYSIS_SCHEMAS),
        ("timeline", _check_timeline, _TELEMETRY_SCHEMAS),
        ("monitors", _check_monitors, _TELEMETRY_SCHEMAS),
        ("matrix", _check_matrix, _MATRIX_SCHEMAS),
        ("scaling", _check_scaling, _SCALING_SCHEMAS),
        ("sketches", _check_sketches, _SLO_SCHEMAS),
        ("slo", _check_slo, _SLO_SCHEMAS),
        ("aborts", _check_aborts, _PROVENANCE_SCHEMAS),
        ("waste", _check_waste, _PROVENANCE_SCHEMAS),
        ("hotness", _check_hotness, _PROVENANCE_SCHEMAS),
    ):
        if section in doc:
            if doc["schema"] in versions:
                problems.extend(checker(doc[section]))
            else:
                problems.append("%s section requires schema %r or newer"
                                % (section, versions[0]))

    checked = 0
    seen_metrics = set()
    for site, metrics in sorted(doc["sites"].items()):
        if not isinstance(metrics, dict):
            problems.append("sites[%r] is not an object" % site)
            continue
        for name, summary in sorted(metrics.items()):
            seen_metrics.add(name)
            checked += 1
            where = "sites[%r][%r]" % (site, name)
            if not isinstance(summary, dict):
                problems.append("%s is not an object" % where)
                continue
            for key in _SUMMARY_NUMBERS:
                if not isinstance(summary.get(key), (int, float)):
                    problems.append("%s.%s missing or not numeric" % (where, key))
            buckets = summary.get("buckets")
            if not isinstance(buckets, dict) or not isinstance(
                buckets.get("bounds"), list
            ) or not isinstance(buckets.get("counts"), list):
                problems.append("%s.buckets malformed" % where)
                continue
            if len(buckets["counts"]) != len(buckets["bounds"]) + 1:
                problems.append(
                    "%s.buckets: %d counts for %d bounds (expected bounds+1)"
                    % (where, len(buckets["counts"]), len(buckets["bounds"]))
                )
            if all(isinstance(summary.get(k), (int, float))
                   for k in _SUMMARY_NUMBERS):
                if sum(buckets["counts"]) != summary["count"]:
                    problems.append("%s: bucket counts do not sum to count" % where)
                p50, p95, p99 = summary["p50"], summary["p95"], summary["p99"]
                if not (summary["min"] - 1e-12 <= p50 <= p95 <= p99
                        <= summary["max"] + 1e-12):
                    problems.append(
                        "%s: percentiles not monotone within [min, max]" % where
                    )
    # Grid allowance (v6+): a report with an *empty* sites object is a
    # grid document whose clusters ran cell-locally (the scaling
    # sweep), so no merged lock/rpc/disk/commit latencies exist.
    grid = doc["schema"] in _MATRIX_SCHEMAS and doc["sites"] == {}
    if not grid:
        for name in REQUIRED_METRICS:
            if name not in seen_metrics:
                problems.append("required metric %r missing from every site"
                                % name)
    if problems:
        _fail(problems)
    return checked


#: Numeric fields every throughput run (batching on or off) must carry.
_THROUGHPUT_RUN_NUMBERS = (
    "txns", "virtual_seconds", "commits_per_sec",
    "commit_p50_ms", "commit_p95_ms",
    "log_ios_physical", "log_ios_logical",
    "phase2_messages",
)


def _check_throughput(section):
    """Problems with a v3 ``throughput`` section (empty list = valid)."""
    problems = []
    if not isinstance(section, dict):
        return ["throughput is %s, expected object" % type(section).__name__]
    for run_key in ("batching_on", "batching_off"):
        run = section.get(run_key)
        where = "throughput[%r]" % run_key
        if not isinstance(run, dict):
            problems.append("%s missing or not an object" % where)
            continue
        for name in _THROUGHPUT_RUN_NUMBERS:
            value = run.get(name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                problems.append("%s.%s missing or not numeric" % (where, name))
    speedup = section.get("speedup")
    if not isinstance(speedup, (int, float)) or isinstance(speedup, bool):
        problems.append("throughput.speedup missing or not numeric")
    return problems


def _check_critpath(section):
    """Problems with a v4 ``critpath`` section (empty list = valid).

    Beyond shape, this enforces the section's defining invariant: each
    transaction's per-category nanoseconds sum *exactly* to its total
    (integer arithmetic, no tolerance), and likewise for the commit
    window.
    """
    problems = []
    if not isinstance(section, dict):
        return ["critpath is %s, expected object" % type(section).__name__]
    txns = section.get("transactions")
    if not isinstance(txns, list):
        problems.append("critpath.transactions missing or not a list")
        txns = []
    for i, txn in enumerate(txns):
        where = "critpath.transactions[%d]" % i
        if not isinstance(txn, dict):
            problems.append("%s is not an object" % where)
            continue
        total = txn.get("total_ns")
        cats = txn.get("categories")
        if not isinstance(total, int) or isinstance(total, bool):
            problems.append("%s.total_ns missing or not an integer" % where)
        elif not isinstance(cats, dict):
            problems.append("%s.categories missing or not an object" % where)
        elif sum(cats.values()) != total:
            problems.append(
                "%s: category sum %d != total_ns %d"
                % (where, sum(cats.values()), total)
            )
        commit = txn.get("commit")
        if commit is not None:
            if not isinstance(commit, dict):
                problems.append("%s.commit is not an object" % where)
                continue
            ctotal = commit.get("total_ns")
            ccats = commit.get("categories")
            if not isinstance(ctotal, int) or isinstance(ctotal, bool):
                problems.append("%s.commit.total_ns missing or not an integer"
                                % where)
            elif not isinstance(ccats, dict):
                problems.append("%s.commit.categories missing or not an object"
                                % where)
            elif sum(ccats.values()) != ctotal:
                problems.append(
                    "%s.commit: category sum %d != total_ns %d"
                    % (where, sum(ccats.values()), ctotal)
                )
            if not isinstance(commit.get("latency_s"), (int, float)):
                problems.append("%s.commit.latency_s missing or not numeric"
                                % where)
    for key in ("categories", "commit_categories"):
        if not isinstance(section.get(key), dict):
            problems.append("critpath.%s missing or not an object" % key)
    if not isinstance(section.get("top"), list):
        problems.append("critpath.top missing or not a list")
    return problems


def _check_contention(section):
    """Problems with a v4 ``contention`` section (empty list = valid)."""
    problems = []
    if not isinstance(section, dict):
        return ["contention is %s, expected object" % type(section).__name__]
    if not isinstance(section.get("range_bucket"), int):
        problems.append("contention.range_bucket missing or not an integer")
    for key in ("lock_resources", "disk_resources", "edges"):
        if not isinstance(section.get(key), list):
            problems.append("contention.%s missing or not a list" % key)
        if not isinstance(section.get(key + "_total"), int):
            problems.append("contention.%s_total missing or not an integer" % key)
    cycle = section.get("aggregate_cycle", None)
    if cycle is not None and not isinstance(cycle, list):
        problems.append("contention.aggregate_cycle is not a list or null")
    return problems


def _check_timeline(section):
    """Problems with a v5 ``timeline`` section (empty list = valid).

    Beyond shape, enforces the grid invariant: every gauge series has
    exactly ``ticks + 1`` samples (one per tick boundary, including
    t=0) and every rate series exactly ``ticks`` buckets."""
    problems = []
    if not isinstance(section, dict):
        return ["timeline is %s, expected object" % type(section).__name__]
    tick = section.get("tick")
    if not isinstance(tick, (int, float)) or isinstance(tick, bool) or tick <= 0:
        problems.append("timeline.tick missing or not a positive number")
    ticks = section.get("ticks")
    if not isinstance(ticks, int) or isinstance(ticks, bool) or ticks < 1:
        problems.append("timeline.ticks missing or not a positive integer")
        ticks = None
    for key in ("points", "dropped"):
        if not isinstance(section.get(key), int):
            problems.append("timeline.%s missing or not an integer" % key)
    if not isinstance(section.get("until"), (int, float)):
        problems.append("timeline.until missing or not numeric")
    sites = section.get("sites")
    if not isinstance(sites, dict):
        return problems + ["timeline.sites missing or not an object"]
    for site, series in sorted(sites.items()):
        where = "timeline.sites[%r]" % site
        if not isinstance(series, dict):
            problems.append("%s is not an object" % where)
            continue
        for group, expected_len in (("gauges", None if ticks is None else ticks + 1),
                                    ("rates", ticks)):
            values = series.get(group)
            if not isinstance(values, dict):
                problems.append("%s.%s missing or not an object" % (where, group))
                continue
            for name, samples in sorted(values.items()):
                if not isinstance(samples, list) or not all(
                    isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in samples
                ):
                    problems.append("%s.%s[%r] is not a numeric list"
                                    % (where, group, name))
                elif expected_len is not None and len(samples) != expected_len:
                    problems.append(
                        "%s.%s[%r] has %d samples, expected %d"
                        % (where, group, name, len(samples), expected_len)
                    )
        for group in ("peaks", "totals"):
            values = series.get(group)
            if not isinstance(values, dict) or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in values.values()
            ):
                problems.append("%s.%s missing or not a numeric object"
                                % (where, group))
    return problems


def _check_monitors(section):
    """Problems with a v5 ``monitors`` section (empty list = valid)."""
    problems = []
    if not isinstance(section, dict):
        return ["monitors is %s, expected object" % type(section).__name__]
    if not isinstance(section.get("strict"), bool):
        problems.append("monitors.strict missing or not a boolean")
    for key in ("events", "total_violations"):
        value = section.get(key)
        if not isinstance(value, int) or isinstance(value, bool):
            problems.append("monitors.%s missing or not an integer" % key)
    checks = section.get("checks")
    if not isinstance(checks, list) or not all(
        isinstance(c, str) for c in checks
    ):
        problems.append("monitors.checks missing or not a list of strings")
    counts = section.get("violation_counts")
    if not isinstance(counts, dict) or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in counts.values()
    ):
        problems.append("monitors.violation_counts missing or not an "
                        "integer-valued object")
    elif isinstance(section.get("total_violations"), int) and sum(
        counts.values()
    ) != section["total_violations"]:
        problems.append("monitors: violation_counts do not sum to "
                        "total_violations")
    violations = section.get("violations")
    if not isinstance(violations, list):
        problems.append("monitors.violations missing or not a list")
    else:
        for i, v in enumerate(violations):
            where = "monitors.violations[%d]" % i
            if not isinstance(v, dict):
                problems.append("%s is not an object" % where)
                continue
            for key, kind in (("check", str), ("message", str),
                              ("ts", (int, float))):
                if not isinstance(v.get(key), kind):
                    problems.append("%s.%s missing or wrong type" % (where, key))
    return problems


def _check_matrix(section):
    """Problems with a v6 ``matrix`` section (empty list = valid).

    Enforces the runner's contract: the cell list covers exactly the
    cross product of the declared grid axes and each cell carries its
    scenario outcome."""
    problems = []
    if not isinstance(section, dict):
        return ["matrix is %s, expected object" % type(section).__name__]
    grid = section.get("grid")
    if not isinstance(grid, dict) or not all(
        isinstance(v, list) for v in grid.values()
    ):
        problems.append("matrix.grid missing or not an object of lists")
        grid = None
    cells = section.get("cells")
    if not isinstance(cells, list):
        return problems + ["matrix.cells missing or not a list"]
    if grid is not None:
        expected = 1
        for values in grid.values():
            expected *= max(len(values), 1)
        if len(cells) != expected:
            problems.append(
                "matrix: %d cells for a %d-cell grid" % (len(cells), expected)
            )
    for i, cell in enumerate(cells):
        where = "matrix.cells[%d]" % i
        if not isinstance(cell, dict):
            problems.append("%s is not an object" % where)
            continue
        if not isinstance(cell.get("scenario"), str):
            problems.append("%s.scenario missing or not a string" % where)
        for key in ("lock_cache", "commit_batching"):
            if not isinstance(cell.get(key), bool):
                problems.append("%s.%s missing or not a boolean" % (where, key))
        if not isinstance(cell.get("virtual_time"), (int, float)):
            problems.append("%s.virtual_time missing or not numeric" % where)
        violations = cell.get("monitors_total_violations")
        if not isinstance(violations, int) or isinstance(violations, bool):
            problems.append(
                "%s.monitors_total_violations missing or not an integer" % where
            )
    return problems


#: Numeric fields every scaling cell must carry.
_SCALING_CELL_NUMBERS = (
    "committed", "aborted", "retries", "abort_rate",
    "virtual_seconds", "commits_per_sec", "p50_ms", "p95_ms", "p99_ms",
)

#: Client-axis curves the reference corner must carry.
_SCALING_CURVES = ("commits_per_sec", "abort_rate", "p99_ms")


def _check_scaling(section):
    """Problems with a v7 ``scaling`` section (empty list = valid).

    Enforces the sweep's contract: the cell list covers exactly the
    cross product of the declared grid axes, every cell carries its
    virtual-time stats, and the reference corner's client-axis curves
    have one ``c<N>`` entry per declared client count."""
    problems = []
    if not isinstance(section, dict):
        return ["scaling is %s, expected object" % type(section).__name__]
    grid = section.get("grid")
    if not isinstance(grid, dict) or not all(
        isinstance(v, list) and v for v in grid.values()
    ):
        problems.append("scaling.grid missing or not an object of "
                        "non-empty lists")
        grid = None
    cells = section.get("cells")
    if not isinstance(cells, list):
        return problems + ["scaling.cells missing or not a list"]
    if grid is not None:
        expected = 1
        for values in grid.values():
            expected *= len(values)
        if len(cells) != expected:
            problems.append(
                "scaling: %d cells for a %d-cell grid" % (len(cells), expected)
            )
    for i, cell in enumerate(cells):
        where = "scaling.cells[%d]" % i
        if not isinstance(cell, dict):
            problems.append("%s is not an object" % where)
            continue
        for key in ("sites", "clients"):
            value = cell.get(key)
            if not isinstance(value, int) or isinstance(value, bool):
                problems.append("%s.%s missing or not an integer" % (where, key))
        if not isinstance(cell.get("theta"), (int, float)) or isinstance(
            cell.get("theta"), bool
        ):
            problems.append("%s.theta missing or not numeric" % where)
        for key in _SCALING_CELL_NUMBERS:
            value = cell.get(key)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                problems.append("%s.%s missing or not numeric" % (where, key))
        violations = cell.get("monitors_total_violations")
        if not isinstance(violations, int) or isinstance(violations, bool):
            problems.append(
                "%s.monitors_total_violations missing or not an integer" % where
            )
        # v8 optional per-cell telemetry: sketch-backed p999, per-mix
        # tail quantiles, and SLO verdicts.
        p999 = cell.get("p999_ms", None)
        if p999 is not None and (
            not isinstance(p999, (int, float)) or isinstance(p999, bool)
        ):
            problems.append("%s.p999_ms is not numeric or null" % where)
        mixes = cell.get("mixes", None)
        if mixes is not None:
            if not isinstance(mixes, dict):
                problems.append("%s.mixes is not an object or null" % where)
            else:
                for mix, quantiles in sorted(mixes.items()):
                    if not isinstance(quantiles, dict) or not all(
                        isinstance(v, (int, float)) and not isinstance(v, bool)
                        for v in quantiles.values()
                    ):
                        problems.append(
                            "%s.mixes[%r] is not a numeric object" % (where, mix)
                        )
        slo = cell.get("slo", None)
        if slo is not None:
            if not isinstance(slo, dict):
                problems.append("%s.slo is not an object or null" % where)
            else:
                for mix, verdict in sorted(slo.items()):
                    vwhere = "%s.slo[%r]" % (where, mix)
                    if not isinstance(verdict, dict):
                        problems.append("%s is not an object" % vwhere)
                        continue
                    if not isinstance(verdict.get("ok"), bool):
                        problems.append("%s.ok missing or not a boolean" % vwhere)
                    burn = verdict.get("worst_burn")
                    if not isinstance(burn, (int, float)) or isinstance(
                        burn, bool
                    ):
                        problems.append(
                            "%s.worst_burn missing or not numeric" % vwhere
                        )
        # v9 optional per-cell provenance: goodput fraction, dominant
        # abort cause, hottest contended ranges, and the per-cell waste
        # ledger (whose categories must sum exactly to its wasted_ns).
        goodput = cell.get("goodput_fraction", None)
        if goodput is not None:
            if not isinstance(goodput, (int, float)) or isinstance(
                goodput, bool
            ):
                problems.append("%s.goodput_fraction is not numeric or null"
                                % where)
            elif not 0.0 <= goodput <= 1.0:
                problems.append("%s.goodput_fraction %r outside [0, 1]"
                                % (where, goodput))
        dominant = cell.get("dominant_abort_cause", None)
        if dominant is not None and not isinstance(dominant, str):
            problems.append("%s.dominant_abort_cause is not a string or null"
                            % where)
        hot = cell.get("hot_ranges", None)
        if hot is not None:
            if not isinstance(hot, list):
                problems.append("%s.hot_ranges is not a list or null" % where)
            else:
                for j, row in enumerate(hot):
                    if not isinstance(row, dict) or not isinstance(
                        row.get("file"), str
                    ) or not isinstance(row.get("range_start"), int):
                        problems.append(
                            "%s.hot_ranges[%d] malformed (needs file str, "
                            "range_start int)" % (where, j)
                        )
        waste = cell.get("waste", None)
        if waste is not None:
            if not isinstance(waste, dict):
                problems.append("%s.waste is not an object or null" % where)
            else:
                wwhere = "%s.waste" % where
                wasted = waste.get("wasted_ns")
                cats = waste.get("categories")
                if not isinstance(wasted, int) or isinstance(wasted, bool):
                    problems.append("%s.wasted_ns missing or not an integer"
                                    % wwhere)
                elif not isinstance(cats, dict):
                    problems.append("%s.categories missing or not an object"
                                    % wwhere)
                elif sum(cats.values()) != wasted:
                    problems.append(
                        "%s: category sum %d != wasted_ns %d"
                        % (wwhere, sum(cats.values()), wasted)
                    )
    reference = section.get("reference")
    if not isinstance(reference, dict):
        return problems + ["scaling.reference missing or not an object"]
    expected_labels = None
    if grid is not None and isinstance(grid.get("clients"), list):
        expected_labels = sorted(
            "c%d" % c for c in grid["clients"]
            if isinstance(c, int) and not isinstance(c, bool)
        )
    for key in _SCALING_CURVES:
        curve = reference.get(key)
        where = "scaling.reference[%r]" % key
        if not isinstance(curve, dict):
            problems.append("%s missing or not an object" % where)
            continue
        for label, value in sorted(curve.items()):
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                problems.append("%s[%r] is not numeric" % (where, label))
        if expected_labels is not None and sorted(curve) != expected_labels:
            problems.append(
                "%s keys %s do not match grid clients %s"
                % (where, sorted(curve), expected_labels)
            )
    return problems


#: Numeric fields every spans.sampling payload must carry.
_SAMPLING_NUMBERS = ("head_rate", "slow_percentile", "kept_traces",
                     "dropped_traces", "dropped_spans", "marked",
                     "late_marks", "peak_retained", "peak_buffered")


def _check_sampling(section):
    """Problems with a v8 ``spans.sampling`` payload (empty list = valid)."""
    problems = []
    if not isinstance(section, dict):
        return ["spans.sampling is %s, expected object"
                % type(section).__name__]
    if not isinstance(section.get("enabled"), bool):
        problems.append("spans.sampling.enabled missing or not a boolean")
    for key in _SAMPLING_NUMBERS:
        value = section.get(key)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append("spans.sampling.%s missing or not numeric" % key)
    return problems


#: Numeric fields every quantile-sketch summary must carry.
_SKETCH_NUMBERS = ("rel_err", "count", "sum", "min", "max", "mean",
                   "p50", "p95", "p99", "p999", "zeros", "collapsed")


def _check_sketches(section):
    """Problems with a v8 ``sketches`` section (empty list = valid).

    Shape: {site: {mix: {metric: sketch-summary}}} with each summary
    carrying the exact stats, the headline quantiles (monotone within
    [min, max]) and the string-keyed bucket map that makes the merge
    lossless."""
    problems = []
    if not isinstance(section, dict):
        return ["sketches is %s, expected object" % type(section).__name__]
    for site, mixes in sorted(section.items()):
        if not isinstance(mixes, dict):
            problems.append("sketches[%r] is not an object" % site)
            continue
        for mix, metrics in sorted(mixes.items()):
            if not isinstance(metrics, dict):
                problems.append("sketches[%r][%r] is not an object"
                                % (site, mix))
                continue
            for name, summary in sorted(metrics.items()):
                where = "sketches[%r][%r][%r]" % (site, mix, name)
                if not isinstance(summary, dict):
                    problems.append("%s is not an object" % where)
                    continue
                for key in _SKETCH_NUMBERS:
                    value = summary.get(key)
                    if not isinstance(value, (int, float)) or isinstance(
                        value, bool
                    ):
                        problems.append("%s.%s missing or not numeric"
                                        % (where, key))
                buckets = summary.get("buckets")
                if not isinstance(buckets, dict) or not all(
                    isinstance(n, int) and not isinstance(n, bool)
                    for n in buckets.values()
                ):
                    problems.append("%s.buckets missing or not an "
                                    "integer-valued object" % where)
                    continue
                if all(isinstance(summary.get(k), (int, float))
                       for k in _SKETCH_NUMBERS):
                    total = (sum(buckets.values()) + summary["zeros"]
                             + summary["collapsed"])
                    if total != summary["count"]:
                        problems.append(
                            "%s: buckets + zeros + collapsed = %d, "
                            "count = %d" % (where, total, summary["count"])
                        )
                    p50, p95 = summary["p50"], summary["p95"]
                    p99, p999 = summary["p99"], summary["p999"]
                    if summary["count"] and not (
                        summary["min"] - 1e-12 <= p50 <= p95 <= p99 <= p999
                        <= summary["max"] + 1e-12
                    ):
                        problems.append(
                            "%s: quantiles not monotone within [min, max]"
                            % where
                        )
    return problems


def _check_slo(section):
    """Problems with a v8 ``slo`` section (empty list = valid).

    Beyond shape, enforces the burn arithmetic: each objective's burn
    equals (bad/total)/budget, ``ok`` means burn <= 1.0, and the series
    length matches the declared window count."""
    problems = []
    if not isinstance(section, dict):
        return ["slo is %s, expected object" % type(section).__name__]
    window = section.get("window")
    if not isinstance(window, (int, float)) or isinstance(window, bool) \
            or window <= 0:
        problems.append("slo.window missing or not a positive number")
    windows = section.get("windows")
    if not isinstance(windows, int) or isinstance(windows, bool) \
            or windows < 1:
        problems.append("slo.windows missing or not a positive integer")
        windows = None
    if not isinstance(section.get("until"), (int, float)):
        problems.append("slo.until missing or not numeric")
    if not isinstance(section.get("worst_burn"), (int, float)):
        problems.append("slo.worst_burn missing or not numeric")
    breaches = section.get("total_breaches")
    if not isinstance(breaches, int) or isinstance(breaches, bool):
        problems.append("slo.total_breaches missing or not an integer")
    if not isinstance(section.get("ok"), bool):
        problems.append("slo.ok missing or not a boolean")
    mixes = section.get("mixes")
    if not isinstance(mixes, dict):
        return problems + ["slo.mixes missing or not an object"]
    for mix, entry in sorted(mixes.items()):
        where = "slo.mixes[%r]" % mix
        if not isinstance(entry, dict):
            problems.append("%s is not an object" % where)
            continue
        if not isinstance(entry.get("ok"), bool):
            problems.append("%s.ok missing or not a boolean" % where)
        if not isinstance(entry.get("worst_burn"), (int, float)):
            problems.append("%s.worst_burn missing or not numeric" % where)
        objectives = entry.get("objectives")
        if not isinstance(objectives, list):
            problems.append("%s.objectives missing or not a list" % where)
            continue
        for i, row in enumerate(objectives):
            owhere = "%s.objectives[%d]" % (where, i)
            if not isinstance(row, dict):
                problems.append("%s is not an object" % owhere)
                continue
            for key, kind in (("name", str), ("metric", str), ("kind", str),
                              ("bound", (int, float)),
                              ("budget", (int, float)),
                              ("burn", (int, float)),
                              ("worst_burn", (int, float)),
                              ("ok", bool)):
                if not isinstance(row.get(key), kind) or (
                    kind is not bool and isinstance(row.get(key), bool)
                ):
                    problems.append("%s.%s missing or wrong type"
                                    % (owhere, key))
            for key in ("total", "bad"):
                value = row.get(key)
                if not isinstance(value, int) or isinstance(value, bool):
                    problems.append("%s.%s missing or not an integer"
                                    % (owhere, key))
            series = row.get("series")
            if not isinstance(series, list) or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in series
            ):
                problems.append("%s.series missing or not a numeric list"
                                % owhere)
            elif windows is not None and len(series) != windows:
                problems.append("%s.series has %d windows, expected %d"
                                % (owhere, len(series), windows))
            if all(isinstance(row.get(k), (int, float))
                   and not isinstance(row.get(k), bool)
                   for k in ("bound", "budget", "burn")) and isinstance(
                row.get("total"), int
            ) and isinstance(row.get("bad"), int) and isinstance(
                row.get("ok"), bool
            ):
                total, bad = row["total"], row["bad"]
                expected = (bad / total) / row["budget"] if total else 0.0
                if abs(expected - row["burn"]) > 1e-9 * max(1.0, expected):
                    problems.append("%s: burn %.6f != (bad/total)/budget %.6f"
                                    % (owhere, row["burn"], expected))
                if row["ok"] != (row["burn"] <= 1.0):
                    problems.append("%s: ok flag disagrees with burn" % owhere)
    return problems


#: The closed abort-cause taxonomy (mirrors repro.obs.provenance.CAUSES;
#: ``unclassified`` may additionally appear in waste ledgers computed
#: without provenance attached).
_ABORT_CAUSES = ("deadlock", "lock_timeout", "rpc_timeout", "crash",
                 "explicit")


def _check_aborts(section):
    """Problems with a v9 ``aborts`` section (empty list = valid).

    Beyond shape, enforces the taxonomy's closure (every cause key is
    one of the five known causes) and the count invariant (per-cause
    counts sum to ``total`` -- every abort carries exactly one cause)."""
    problems = []
    if not isinstance(section, dict):
        return ["aborts is %s, expected object" % type(section).__name__]
    total = section.get("total")
    if not isinstance(total, int) or isinstance(total, bool):
        problems.append("aborts.total missing or not an integer")
        total = None
    causes = section.get("causes")
    if not isinstance(causes, dict):
        problems.append("aborts.causes missing or not an object")
    else:
        for cause, count in sorted(causes.items()):
            if cause not in _ABORT_CAUSES:
                problems.append("aborts.causes[%r] is not a known cause %r"
                                % (cause, _ABORT_CAUSES))
            if not isinstance(count, int) or isinstance(count, bool):
                problems.append("aborts.causes[%r] is not an integer" % cause)
        if total is not None and all(
            isinstance(c, int) and not isinstance(c, bool)
            for c in causes.values()
        ) and sum(causes.values()) != total:
            problems.append("aborts: cause counts sum to %d, total is %d"
                            % (sum(causes.values()), total))
    by_site = section.get("by_site")
    if not isinstance(by_site, dict) or not all(
        isinstance(v, int) and not isinstance(v, bool)
        for v in by_site.values()
    ):
        problems.append("aborts.by_site missing or not an integer-valued "
                        "object")
    retries = section.get("retries")
    if not isinstance(retries, dict):
        problems.append("aborts.retries missing or not an object")
    else:
        for key in ("successes", "retried_successes", "attempts",
                    "max_chain", "abandoned"):
            value = retries.get(key)
            if not isinstance(value, int) or isinstance(value, bool):
                problems.append("aborts.retries.%s missing or not an integer"
                                % key)
        rps = retries.get("retries_per_success")
        if not isinstance(rps, (int, float)) or isinstance(rps, bool):
            problems.append("aborts.retries.retries_per_success missing or "
                            "not numeric")
    storm = section.get("storm")
    if not isinstance(storm, dict):
        problems.append("aborts.storm missing or not an object")
    else:
        if not isinstance(storm.get("window_s"), (int, float)):
            problems.append("aborts.storm.window_s missing or not numeric")
        peak = storm.get("peak")
        if not isinstance(peak, int) or isinstance(peak, bool):
            problems.append("aborts.storm.peak missing or not an integer")
        elif total is not None and peak > total:
            problems.append("aborts.storm.peak %d exceeds total %d"
                            % (peak, total))
        if not isinstance(storm.get("at"), (int, float)):
            problems.append("aborts.storm.at missing or not numeric")
    return problems


def _check_waste(section):
    """Problems with a v9 ``waste`` section (empty list = valid).

    Beyond shape, enforces the ledger's defining invariants *exactly*
    (integer arithmetic, no tolerance): per-category wasted nanoseconds
    sum to ``wasted_ns``, per-cause wasted nanoseconds and attempt
    counts sum to the totals, and the goodput fraction is consistent
    with committed vs wasted time."""
    problems = []
    if not isinstance(section, dict):
        return ["waste is %s, expected object" % type(section).__name__]
    numbers = {}
    for key in ("attempts", "wasted_ns", "committed_ns"):
        value = section.get(key)
        if not isinstance(value, int) or isinstance(value, bool):
            problems.append("waste.%s missing or not an integer" % key)
        else:
            numbers[key] = value
    goodput = section.get("goodput_fraction")
    if not isinstance(goodput, (int, float)) or isinstance(goodput, bool):
        problems.append("waste.goodput_fraction missing or not numeric")
    elif not 0.0 <= goodput <= 1.0:
        problems.append("waste.goodput_fraction %r outside [0, 1]" % goodput)
    elif "wasted_ns" in numbers and "committed_ns" in numbers:
        total = numbers["wasted_ns"] + numbers["committed_ns"]
        expected = numbers["committed_ns"] / total if total else 1.0
        if abs(goodput - expected) > 1e-12:
            problems.append(
                "waste.goodput_fraction %.12f != committed/(committed+wasted)"
                " %.12f" % (goodput, expected)
            )
    cats = section.get("categories")
    if not isinstance(cats, dict) or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in cats.values()
    ):
        problems.append("waste.categories missing or not an integer-valued "
                        "object")
    elif "wasted_ns" in numbers and sum(cats.values()) != numbers["wasted_ns"]:
        problems.append("waste: category sum %d != wasted_ns %d"
                        % (sum(cats.values()), numbers["wasted_ns"]))
    by_cause = section.get("by_cause")
    if not isinstance(by_cause, dict):
        problems.append("waste.by_cause missing or not an object")
    else:
        ok_rows = True
        for cause, entry in sorted(by_cause.items()):
            where = "waste.by_cause[%r]" % cause
            if cause not in _ABORT_CAUSES + ("unclassified",):
                problems.append("%s is not a known cause" % where)
            if not isinstance(entry, dict) or not all(
                isinstance(entry.get(k), int) and not isinstance(
                    entry.get(k), bool
                ) for k in ("attempts", "wasted_ns")
            ):
                problems.append("%s needs integer attempts / wasted_ns"
                                % where)
                ok_rows = False
        if ok_rows and "wasted_ns" in numbers and sum(
            e["wasted_ns"] for e in by_cause.values()
        ) != numbers["wasted_ns"]:
            problems.append("waste: by_cause wasted_ns do not sum to "
                            "wasted_ns")
        if ok_rows and "attempts" in numbers and sum(
            e["attempts"] for e in by_cause.values()
        ) != numbers["attempts"]:
            problems.append("waste: by_cause attempts do not sum to attempts")
    by_mix = section.get("by_mix")
    if not isinstance(by_mix, dict) or not all(
        isinstance(v, int) and not isinstance(v, bool)
        for v in by_mix.values()
    ):
        problems.append("waste.by_mix missing or not an integer-valued "
                        "object")
    hot = section.get("hot_ranges")
    if not isinstance(hot, list):
        problems.append("waste.hot_ranges missing or not a list")
    else:
        for i, row in enumerate(hot):
            where = "waste.hot_ranges[%d]" % i
            if not isinstance(row, dict):
                problems.append("%s is not an object" % where)
                continue
            if not isinstance(row.get("file"), str):
                problems.append("%s.file missing or not a string" % where)
            for key in ("range_start", "wasted_ns"):
                value = row.get(key)
                if not isinstance(value, int) or isinstance(value, bool):
                    problems.append("%s.%s missing or not an integer"
                                    % (where, key))
    return problems


def _check_hotness(section):
    """Problems with a v9 ``hotness`` section (empty list = valid).

    Enforces the windowing contract: every top row's score series has
    exactly ``windows`` samples, the final sample equals the headline
    score, and the per-window ranking has one entry list per window."""
    problems = []
    if not isinstance(section, dict):
        return ["hotness is %s, expected object" % type(section).__name__]
    window = section.get("window_s")
    if not isinstance(window, (int, float)) or isinstance(window, bool) \
            or window <= 0:
        problems.append("hotness.window_s missing or not a positive number")
    windows = section.get("windows")
    if not isinstance(windows, int) or isinstance(windows, bool) \
            or windows < 1:
        problems.append("hotness.windows missing or not a positive integer")
        windows = None
    for key in ("alpha", "abort_weight"):
        if not isinstance(section.get(key), (int, float)) or isinstance(
            section.get(key), bool
        ):
            problems.append("hotness.%s missing or not numeric" % key)
    if not isinstance(section.get("keys"), int) or isinstance(
        section.get("keys"), bool
    ):
        problems.append("hotness.keys missing or not an integer")
    top = section.get("top")
    if not isinstance(top, list):
        problems.append("hotness.top missing or not a list")
        top = []
    for i, row in enumerate(top):
        where = "hotness.top[%d]" % i
        if not isinstance(row, dict):
            problems.append("%s is not an object" % where)
            continue
        if not isinstance(row.get("site"), str):
            problems.append("%s.site missing or not a string" % where)
        if not isinstance(row.get("file"), str):
            problems.append("%s.file missing or not a string" % where)
        if not isinstance(row.get("range_start"), int) or isinstance(
            row.get("range_start"), bool
        ):
            problems.append("%s.range_start missing or not an integer" % where)
        for key in ("score", "peak_score", "wait_s"):
            if not isinstance(row.get(key), (int, float)) or isinstance(
                row.get(key), bool
            ):
                problems.append("%s.%s missing or not numeric" % (where, key))
        aborts = row.get("aborts")
        if not isinstance(aborts, int) or isinstance(aborts, bool):
            problems.append("%s.aborts missing or not an integer" % where)
        scores = row.get("scores")
        if not isinstance(scores, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in scores
        ):
            problems.append("%s.scores missing or not a numeric list" % where)
        else:
            if windows is not None and len(scores) != windows:
                problems.append("%s.scores has %d samples, expected %d"
                                % (where, len(scores), windows))
            if scores and isinstance(row.get("score"), (int, float)) \
                    and abs(scores[-1] - row["score"]) > 1e-6:
                problems.append("%s: final scores sample disagrees with "
                                "headline score" % where)
    ranking = section.get("ranking")
    if not isinstance(ranking, list) or not all(
        isinstance(entry, list) and all(isinstance(s, str) for s in entry)
        for entry in ranking
    ):
        problems.append("hotness.ranking missing or not a list of string "
                        "lists")
    elif windows is not None and len(ranking) != windows:
        problems.append("hotness.ranking has %d windows, expected %d"
                        % (len(ranking), windows))
    return problems


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
    checked = validate_report(doc)
    print("%s: OK (%d metric summaries validated)" % (args.report, checked))
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(_main())
