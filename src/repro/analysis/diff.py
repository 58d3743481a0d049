"""Bench-report diffing and the CI regression gate.

::

    python -m repro.analysis.diff OLD.json NEW.json \
        --fail-on 'throughput.speedup>=1.8' \
        --fail-on 'delta.sites.1.commit.latency.p95<=0.25' \
        --json diff.json

Compares two ``repro.bench_report/10`` documents (both sides are
validated first) metric by metric: every per-site sketch summary
field, every counter, and the throughput and scaling sections when
present, each with absolute and relative deltas.  The scaling section's reference knee curves are addressable
both as ``scaling.reference.commits_per_sec.c1024`` and the shorter
``scaling.commits_per_sec.c1024`` (the spelling the CI knee-point gate
pins).  New and vanished
metrics are listed explicitly -- a disappearing metric is a regression
of the observability layer itself.

``--fail-on`` expressions are *requirements*: the gate exits non-zero
when one is violated.  Each is ``PATH OP NUMBER`` with OP one of
``< <= > >= == !=``; the path resolves into the **new** document by
default, ``old.`` prefixes the baseline, and ``delta.`` yields the
relative change ``(new - old) / old`` of the remaining path.  Dotted
metric names (``commit.latency``) resolve greedily, longest key first,
so ``sites.1.commit.latency.p95`` means what it looks like.

Exit codes: 0 all requirements hold, 1 a requirement is violated, 2 the
inputs are malformed (unreadable, schema-invalid, or a path that does
not resolve).
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from repro.obs.schema import SchemaError, validate_report

__all__ = [
    "SUMMARY_FIELDS",
    "resolve_path",
    "parse_check",
    "evaluate_check",
    "diff_reports",
    "render_diff",
    "main",
]

#: Sketch-summary fields compared per (site, metric).
SUMMARY_FIELDS = ("count", "mean", "p50", "p95", "p99", "max")

_CHECK_RE = re.compile(
    r"^\s*(?P<path>[^<>=!\s]+)\s*(?P<op><=|>=|==|!=|<|>)\s*"
    r"(?P<value>[-+0-9.eE]+)\s*$"
)

_OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


class DiffError(ValueError):
    """Unusable inputs: bad document, bad expression, or a dead path."""


# ----------------------------------------------------------------------
# path resolution
# ----------------------------------------------------------------------

def resolve_path(doc, path):
    """Resolve a dotted path into a report document.

    Metric names themselves contain dots, so resolution backtracks:
    at each dict the longest joinable key is tried first
    (``sites.1.lock.wait.p95`` -> ``sites`` / ``1`` / ``lock.wait`` /
    ``p95``).  Raises :class:`DiffError` when nothing matches.
    """
    tokens = path.split(".")

    def rec(node, toks):
        if not toks:
            return node
        if isinstance(node, dict):
            for i in range(len(toks), 0, -1):
                key = ".".join(toks[:i])
                if key in node:
                    try:
                        return rec(node[key], toks[i:])
                    except DiffError:
                        continue
        elif isinstance(node, list):
            try:
                index = int(toks[0])
                return rec(node[index], toks[1:])
            except (ValueError, IndexError):
                pass
        raise DiffError("path %r does not resolve" % path)

    return rec(doc, tokens)


def _relative_delta(old, new):
    if old == 0:
        return 0.0 if new == 0 else float("inf")
    return (new - old) / old


# ----------------------------------------------------------------------
# fail-on checks
# ----------------------------------------------------------------------

def parse_check(expr):
    """``'PATH OP NUMBER'`` -> ``(path, op, number)``."""
    match = _CHECK_RE.match(expr)
    if match is None:
        raise DiffError(
            "cannot parse --fail-on %r (want PATH OP NUMBER)" % expr
        )
    try:
        value = float(match.group("value"))
    except ValueError:
        raise DiffError("bad threshold number in %r" % expr)
    return match.group("path"), match.group("op"), value


def _gate_view(doc):
    """The document as seen by ``--fail-on`` paths: identical, except
    the scaling section's reference curves are lifted one level so the
    knee-point gates read ``scaling.commits_per_sec.c1024`` (the full
    ``scaling.reference.`` spelling resolves too)."""
    scaling = doc.get("scaling")
    if not isinstance(scaling, dict):
        return doc
    reference = scaling.get("reference")
    if not isinstance(reference, dict):
        return doc
    merged = dict(scaling)
    for key, curve in reference.items():
        if isinstance(curve, dict):
            merged.setdefault(key, curve)
    view = dict(doc)
    view["scaling"] = merged
    return view


def evaluate_check(expr, old_doc, new_doc):
    """Evaluate one requirement; returns its structured result."""
    path, op, threshold = parse_check(expr)
    old_doc, new_doc = _gate_view(old_doc), _gate_view(new_doc)
    if path.startswith("old."):
        value = resolve_path(old_doc, path[len("old."):])
    elif path.startswith("delta."):
        rest = path[len("delta."):]
        value = _relative_delta(
            resolve_path(old_doc, rest), resolve_path(new_doc, rest)
        )
    else:
        rest = path[len("new."):] if path.startswith("new.") else path
        value = resolve_path(new_doc, rest)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise DiffError("path %r resolves to %s, not a number"
                        % (path, type(value).__name__))
    ok = _OPS[op](value, threshold)
    return {"expr": expr, "path": path, "op": op, "threshold": threshold,
            "value": value, "ok": bool(ok)}


# ----------------------------------------------------------------------
# diffing
# ----------------------------------------------------------------------

def _flatten_sites(doc):
    out = {}
    for site, metrics in (doc.get("sites") or {}).items():
        for name, summary in metrics.items():
            out[(str(site), name)] = summary
    return out


def _flatten_counters(doc):
    out = {}
    for site, values in (doc.get("counters") or {}).items():
        for name, value in values.items():
            out[(str(site), name)] = value
    return out


def _flatten_throughput(doc):
    out = {}
    section = doc.get("throughput")
    if not isinstance(section, dict):
        return out
    for run_key in ("batching_on", "batching_off"):
        run = section.get(run_key)
        if isinstance(run, dict):
            for name, value in run.items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    out["%s.%s" % (run_key, name)] = value
    if isinstance(section.get("speedup"), (int, float)):
        out["speedup"] = section["speedup"]
    return out


#: Per-cell numbers compared by :func:`_flatten_scaling` (the identity
#: axes and the host-independent virtual metrics; wall time never
#: enters a report).
_SCALING_DIFF_NUMBERS = ("committed", "aborted", "retries", "abort_rate",
                         "virtual_seconds", "commits_per_sec", "p99_ms")


def _flatten_scaling(doc):
    out = {}
    section = doc.get("scaling")
    if not isinstance(section, dict):
        return out
    for key, curve in (section.get("reference") or {}).items():
        if not isinstance(curve, dict):
            continue
        for label, value in curve.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                out["reference.%s.%s" % (key, label)] = value
    for cell in section.get("cells") or ():
        if not isinstance(cell, dict):
            continue
        label = "s%s.c%s.t%g" % (cell.get("sites"), cell.get("clients"),
                                 cell.get("theta", 0.0))
        for name in _SCALING_DIFF_NUMBERS:
            value = cell.get(name)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                out["cells.%s.%s" % (label, name)] = value
    return out


def diff_reports(old_doc, new_doc, checks=()) -> dict:
    """The structured diff document (see module docstring)."""
    for label, doc in (("old", old_doc), ("new", new_doc)):
        try:
            validate_report(doc)
        except SchemaError as exc:
            raise DiffError("%s report is invalid: %s" % (label, exc))

    metrics = []
    old_sites, new_sites = _flatten_sites(old_doc), _flatten_sites(new_doc)
    for key in sorted(set(old_sites) & set(new_sites)):
        site, name = key
        for field in SUMMARY_FIELDS:
            old_v = old_sites[key].get(field)
            new_v = new_sites[key].get(field)
            if old_v is None or new_v is None or old_v == new_v:
                continue
            metrics.append({
                "site": site, "metric": name, "field": field,
                "old": old_v, "new": new_v, "delta": new_v - old_v,
                "rel": _relative_delta(old_v, new_v),
            })

    counters = []
    old_counters = _flatten_counters(old_doc)
    new_counters = _flatten_counters(new_doc)
    for key in sorted(set(old_counters) & set(new_counters)):
        old_v, new_v = old_counters[key], new_counters[key]
        if old_v == new_v:
            continue
        counters.append({
            "site": key[0], "counter": key[1], "old": old_v, "new": new_v,
            "delta": new_v - old_v, "rel": _relative_delta(old_v, new_v),
        })

    throughput = []
    old_tp, new_tp = _flatten_throughput(old_doc), _flatten_throughput(new_doc)
    for name in sorted(set(old_tp) & set(new_tp)):
        old_v, new_v = old_tp[name], new_tp[name]
        if old_v == new_v:
            continue
        throughput.append({
            "name": name, "old": old_v, "new": new_v,
            "delta": new_v - old_v, "rel": _relative_delta(old_v, new_v),
        })

    scaling = []
    old_sc, new_sc = _flatten_scaling(old_doc), _flatten_scaling(new_doc)
    for name in sorted(set(old_sc) & set(new_sc)):
        old_v, new_v = old_sc[name], new_sc[name]
        if old_v == new_v:
            continue
        scaling.append({
            "scaling": name, "old": old_v, "new": new_v,
            "delta": new_v - old_v, "rel": _relative_delta(old_v, new_v),
        })

    results = [evaluate_check(expr, old_doc, new_doc) for expr in checks]
    return {
        "old": {"schema": old_doc.get("schema"),
                "scenario": old_doc.get("scenario"),
                "virtual_time": old_doc.get("virtual_time")},
        "new": {"schema": new_doc.get("schema"),
                "scenario": new_doc.get("scenario"),
                "virtual_time": new_doc.get("virtual_time")},
        "metrics": metrics,
        "counters": counters,
        "throughput": throughput,
        "scaling": scaling,
        "added_metrics": ["%s/%s" % k
                          for k in sorted(set(new_sites) - set(old_sites))],
        "removed_metrics": ["%s/%s" % k
                            for k in sorted(set(old_sites) - set(new_sites))],
        "checks": results,
        "ok": all(r["ok"] for r in results),
    }


def render_diff(diff, limit=20) -> str:
    """Human-readable digest: the largest relative moves plus every
    requirement's verdict."""
    lines = []
    moves = sorted(
        diff["metrics"] + diff["counters"] + diff["throughput"]
        + diff.get("scaling", []),
        key=lambda m: -abs(m["rel"]),
    )
    if moves:
        header = "%-44s %12s %12s %9s" % ("metric", "old", "new", "rel")
        lines += [header, "-" * len(header)]
        for move in moves[:limit]:
            if "metric" in move:
                label = "%s/%s.%s" % (move["site"], move["metric"], move["field"])
            elif "counter" in move:
                label = "%s/%s" % (move["site"], move["counter"])
            elif "scaling" in move:
                label = "scaling.%s" % move["scaling"]
            else:
                label = "throughput.%s" % move["name"]
            lines.append("%-44s %12.6g %12.6g %+8.1f%%" % (
                label, move["old"], move["new"], move["rel"] * 100.0,
            ))
        if len(moves) > limit:
            lines.append("... %d more changed values" % (len(moves) - limit))
    else:
        lines.append("no metric changes")
    for name in ("added_metrics", "removed_metrics"):
        if diff[name]:
            lines.append("%s: %s" % (name.replace("_", " "),
                                     ", ".join(diff[name])))
    for check in diff["checks"]:
        lines.append("%s  %s (value %.6g)" % (
            "PASS" if check["ok"] else "FAIL", check["expr"], check["value"],
        ))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.diff",
        description="Diff two bench reports and gate on thresholds.",
    )
    parser.add_argument("old", help="baseline report JSON")
    parser.add_argument("new", help="candidate report JSON")
    parser.add_argument("--fail-on", action="append", default=[],
                        metavar="EXPR",
                        help="requirement 'PATH OP NUMBER'; exit 1 when "
                             "violated (repeatable; delta./old. prefixes)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write the structured diff document")
    parser.add_argument("--limit", type=int, default=20,
                        help="rows shown in the change digest")
    args = parser.parse_args(argv)

    try:
        with open(args.old) as fh:
            old_doc = json.load(fh)
        with open(args.new) as fh:
            new_doc = json.load(fh)
    except (OSError, ValueError) as exc:
        print("cannot load reports: %s" % exc, file=sys.stderr)
        return 2
    try:
        diff = diff_reports(old_doc, new_doc, checks=args.fail_on)
    except DiffError as exc:
        print("diff failed: %s" % exc, file=sys.stderr)
        return 2

    print("diff %s (%s) -> %s (%s)" % (
        args.old, diff["old"]["schema"], args.new, diff["new"]["schema"],
    ))
    print(render_diff(diff, limit=args.limit))
    if args.json:
        from repro.obs import write_json

        write_json(args.json, diff)
        print("wrote %s" % args.json)
    return 0 if diff["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
