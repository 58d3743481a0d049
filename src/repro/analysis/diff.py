"""Bench-report diffing and the CI regression gate.

::

    python -m repro.analysis.diff OLD.json NEW.json \
        --fail-on 'throughput.speedup>=1.8' \
        --fail-on 'sites.1.commit.latency.p95<=0.25' \
        --json diff.json

Compares two ``repro.bench_report/10`` documents (both sides are
validated first) leaf by leaf, over every numeric leaf a section of
:data:`repro.obs.schema.SECTIONS` declares: each per-site sketch
summary field, each counter, the throughput numbers and the scaling
reference curves and cell numbers.  A leaf whose value moved is one
``changes`` entry ``{path, old, new, delta, rel}``; a leaf only one side
has is listed under ``added`` or ``removed`` -- a disappearing metric
is a regression of the observability layer itself.  Every path is the
one a ``--fail-on`` expression would use, e.g.
``scaling.reference.commits_per_sec.c1024``.

``--fail-on`` expressions are *requirements* on the new document: the
gate exits non-zero when one is violated.  Each is ``PATH OP NUMBER``
with OP one of ``< <= > >= == !=``.  Dotted metric names
(``commit.latency``) resolve greedily, longest key first, so
``sites.1.commit.latency.p95`` means what it looks like, and a number
indexes a list.  A gate on the *change* from the baseline has no
spelling: the deterministic documents are compared with ``cmp``.

Exit codes: 0 all requirements hold, 1 a requirement is violated, 2 the
inputs are malformed (unreadable, schema-invalid, or a path that does
not resolve).
"""

from __future__ import annotations

import argparse
import json
import operator
import re
import sys

from repro.obs.schema import SECTIONS, SchemaError, validate_report

__all__ = [
    "resolve_path",
    "parse_check",
    "evaluate_check",
    "diff_reports",
    "render_diff",
    "main",
]

_CHECK_RE = re.compile(
    r"^\s*(?P<path>[^<>=!\s]+)\s*(?P<op><=|>=|==|!=|<|>)\s*"
    r"(?P<value>[-+0-9.eE]+)\s*$"
)

_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
        ">=": operator.ge, "==": operator.eq, "!=": operator.ne}


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


def evaluate_check(expr, doc):
    """Evaluate one requirement against a document; returns its
    structured result."""
    path, op, threshold = parse_check(expr)
    value = resolve_path(doc, path)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise DiffError("path %r resolves to %s, not a number"
                        % (path, type(value).__name__))
    ok = _OPS[op](value, threshold)
    return {"expr": expr, "path": path, "op": op, "threshold": threshold,
            "value": value, "ok": bool(ok)}


# ----------------------------------------------------------------------
# diffing
# ----------------------------------------------------------------------

def _leaves(doc):
    """{key: (path, value)} over every leaf the section table declares."""
    return {key: (path, value)
            for name, section in SECTIONS.items()
            if section.leaves is not None and name in doc
            for key, path, value in section.leaves(doc[name])}


def diff_reports(old_doc, new_doc, checks=()) -> dict:
    """The structured diff document (see module docstring)."""
    for label, doc in (("old", old_doc), ("new", new_doc)):
        try:
            validate_report(doc)
        except SchemaError as exc:
            raise DiffError("%s report is invalid: %s" % (label, exc))

    old, new = _leaves(old_doc), _leaves(new_doc)
    changes = []
    for key, (path, new_v) in new.items():
        if key in old and old[key][1] != new_v:
            old_v = old[key][1]
            changes.append({"path": path, "old": old_v, "new": new_v,
                            "delta": new_v - old_v,
                            "rel": _relative_delta(old_v, new_v)})
    results = [evaluate_check(expr, new_doc) for expr in checks]
    return {
        side: {key: doc.get(key)
               for key in ("schema", "scenario", "virtual_time")}
        for side, doc in (("old", old_doc), ("new", new_doc))
    } | {
        "changes": changes,
        "added": [path for key, (path, _) in new.items() if key not in old],
        "removed": [path for key, (path, _) in old.items() if key not in new],
        "checks": results,
        "ok": all(r["ok"] for r in results),
    }


def render_diff(diff, limit=20) -> str:
    """Human-readable digest: the largest relative moves plus every
    requirement's verdict."""
    lines = []
    moves = sorted(diff["changes"], key=lambda m: -abs(m["rel"]))
    if moves:
        header = "%-44s %12s %12s %9s" % ("path", "old", "new", "rel")
        lines += [header, "-" * len(header)]
        for move in moves[:limit]:
            lines.append("%-44s %12.6g %12.6g %+8.1f%%" % (
                move["path"], move["old"], move["new"], move["rel"] * 100.0,
            ))
        if len(moves) > limit:
            lines.append("... %d more changed values" % (len(moves) - limit))
    else:
        lines.append("no metric changes")
    for name in ("added", "removed"):
        if diff[name]:
            lines.append("%s: %s" % (name, ", ".join(diff[name])))
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
                        help="requirement 'PATH OP NUMBER' on the new "
                             "report; exit 1 when violated (repeatable)")
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
