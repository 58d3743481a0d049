"""Span-tree well-formedness lint: ``python -m repro.obs.lint``.

The blame table (:mod:`repro.obs.critpath`) and every report section
built from it trust the span trees the instrumentation records.  This
lint makes that trust checkable: it verifies the structural invariants
every finished run must satisfy, so a refactor that breaks context
propagation (a span left open, a parent closed before its child even
starts, a message stamped with the wrong trace) fails CI instead of
silently skewing the blame table.

Rules (each validated empirically over every report scenario):

``unclosed``
    Every span is closed once the run is over.  An open span means an
    instrumentation site lost its ``end()`` (e.g. an exception path).
``orphan``
    Every ``parent_id`` refers to a recorded span.  Skipped when the
    recorder dropped spans at capacity -- then the parent may simply
    not have been kept.
``trace-mismatch``
    A child belongs to its parent's trace; the (trace_id, span_id)
    tuples the RPC layer ships must reconstruct one tree per operation.
``time-travel``
    A child never starts before its parent: causality runs forward.
``late-start``
    A child on the *same* process track starts while its parent is
    still open (the process's span stack makes anything else
    impossible).  Children on other tracks are exempt: asynchronously
    spawned work -- the phase-two process, a group-commit pump write, a
    lease recall -- legitimately begins after the parent span closed,
    and may outlive it.
``no-root``
    Every trace id has at least one root span (``parent_id`` None).
    Skipped when spans were dropped.
``abort-no-provenance``
    Every aborted ``txn`` root span has an abort-provenance record (the
    ``abort.provenance`` instant carrying its cause) -- the "every abort
    carries exactly one cause" invariant of
    :mod:`repro.obs.provenance`.  Checked live when the run had
    provenance attached, and over saved traces whenever the file
    carries any txn spans.
``provenance-dangling``
    Every abort-provenance record that names a trace id points at a
    recorded trace.  Skipped when the recorder dropped spans (then the
    trace may legitimately be gone while its classification remains).

A recorder keeps every span up to its ``capacity`` and counts the rest
in ``dropped``; a saved trace file records that count in its
``spans_dropped`` header (written only when it is non-zero), so the
three completeness rules are skipped for an incomplete file exactly as
for the live run it came from.

Run over the report scenarios (the CI configuration)::

    python -m repro.obs.lint            # all scenarios
    python -m repro.obs.lint commit wal # a subset

With ``--monitors`` the positional arguments become saved Chrome-trace
JSON files instead: each is replayed offline through the 2PC protocol
monitors (:func:`repro.obs.monitor.replay_trace`), so a committed
``BENCH_trace.json`` artifact can be audited without re-running its
scenario::

    python -m repro.obs.lint --monitors BENCH_trace.json

With ``--spans`` the positional arguments are also saved trace files,
but linted *structurally* (the rules above) instead of being replayed
through the monitors; a file's ``spans_dropped`` header switches the
completeness rules off automatically::

    python -m repro.obs.lint --spans BENCH_trace.json

Exit codes: 0 clean, 1 a rule or monitor was violated, 2 a trace file
could not be read or is not JSON.
"""

from __future__ import annotations

__all__ = ["Violation", "lint_spans", "lint_provenance",
           "spans_from_trace", "lint_trace_spans", "main"]


class Violation:
    """One broken invariant: the rule, the offending span, and a
    human-readable message."""

    __slots__ = ("rule", "span", "message")

    def __init__(self, rule, span, message):
        self.rule = rule
        self.span = span
        self.message = message

    def __repr__(self):
        return "<Violation %s: %s>" % (self.rule, self.message)

    def __str__(self):
        return "[%s] %s" % (self.rule, self.message)


def _describe(span):
    return "%s span_id=%d trace=%d site=%s [%s, %s)" % (
        span.name, span.span_id, span.trace_id, span.site_id,
        span.start, span.end,
    )


def lint_spans(recorder) -> list:
    """Every :class:`Violation` in a finished run's span record, in
    deterministic (span_id) order.  Empty list = well-formed."""
    return _lint(recorder.spans, dropped=recorder.dropped > 0)


def _lint(spans, dropped=False) -> list:
    violations = []
    by_id = {s.span_id: s for s in spans}

    roots_per_trace = {}
    for span in spans:
        roots_per_trace.setdefault(span.trace_id, 0)
        if span.parent_id is None:
            roots_per_trace[span.trace_id] += 1

        if span.end is None:
            violations.append(Violation(
                "unclosed", span, "span never closed: %s" % _describe(span)))

        if span.parent_id is None:
            continue
        parent = by_id.get(span.parent_id)
        if parent is None:
            if not dropped:
                violations.append(Violation(
                    "orphan", span,
                    "parent %d not recorded: %s"
                    % (span.parent_id, _describe(span))))
            continue
        if parent.trace_id != span.trace_id:
            violations.append(Violation(
                "trace-mismatch", span,
                "child trace %d != parent trace %d: %s"
                % (span.trace_id, parent.trace_id, _describe(span))))
        if span.start < parent.start:
            violations.append(Violation(
                "time-travel", span,
                "child starts %.9f before parent %s: %s"
                % (parent.start - span.start, parent.name, _describe(span))))
        if (span.tid == parent.tid and parent.end is not None
                and span.start > parent.end):
            violations.append(Violation(
                "late-start", span,
                "same-track child starts %.9f after parent %s closed: %s"
                % (span.start - parent.end, parent.name, _describe(span))))

    if not dropped:
        for trace_id, roots in sorted(roots_per_trace.items()):
            if roots == 0:
                violations.append(Violation(
                    "no-root", None,
                    "trace %d has no root span" % trace_id))
    return violations


def lint_provenance(obs) -> list:
    """Abort-provenance completeness violations for a finished observed
    run (empty list = every abort classified, no dangling references).

    A no-op (empty list) when the run had no provenance hub attached --
    there is nothing to hold the records against."""
    prov = getattr(obs, "provenance", None)
    if prov is None:
        return []
    recorder = obs.spans
    violations = []
    # Txn root spans carry ``str(tid)``; the hub is keyed by the id
    # objects themselves.  Compare in string space.
    classified_tids = {str(tid) for tid in prov.by_tid}
    for span in recorder.spans:
        if span.name != "txn" or span.status != "aborted":
            continue
        tid = span.attrs.get("tid")
        if tid is not None and tid not in classified_tids:
            violations.append(Violation(
                "abort-no-provenance", span,
                "aborted txn %s has no provenance record: %s"
                % (tid, _describe(span))))
    if not recorder.dropped:
        known = set(recorder.trace_ids())
        for rec in prov.records:
            if rec.trace_id is not None and rec.trace_id not in known:
                violations.append(Violation(
                    "provenance-dangling", None,
                    "abort record for tid %s points at unrecorded trace %s"
                    % (rec.tid, rec.trace_id)))
    return violations


class _TraceSpan:
    """A span reconstructed from a saved Chrome-trace 'X' event -- just
    the fields the lint rules read."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "site_id",
                 "tid", "start", "end")

    def __init__(self, trace_id, span_id, parent_id, name, site_id, tid,
                 start, end):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.site_id = site_id
        self.tid = tid
        self.start = start
        self.end = end


def spans_from_trace(doc):
    """``(spans, dropped)`` from a saved Chrome-trace JSON document.

    Complete ('X') events carrying causal ids become lintable span
    views (timestamps back in seconds); ``dropped`` is the document's
    ``spans_dropped`` header (0 when absent), so the caller knows to
    skip the whole-file completeness rules when it is non-zero."""
    spans = []
    for event in doc.get("traceEvents", ()):
        if event.get("ph") != "X":
            continue
        args = event.get("args") or {}
        if "span_id" not in args or "trace_id" not in args:
            continue
        start = event.get("ts", 0) / 1e6
        end = None
        if args.get("status") != "open":
            end = start + event.get("dur", 0) / 1e6
        spans.append(_TraceSpan(
            trace_id=args["trace_id"], span_id=args["span_id"],
            parent_id=args.get("parent_id"), name=event.get("name", ""),
            site_id=event.get("pid"), tid=event.get("tid"),
            start=start, end=end,
        ))
    spans.sort(key=lambda s: s.span_id)
    return spans, doc.get("spans_dropped", 0)


def _lint_trace_provenance(doc, dropped=False) -> list:
    """The provenance rules over a saved Chrome-trace JSON document:
    aborted ``txn`` spans must carry a matching ``abort.provenance``
    instant, and every such instant's ``trace`` arg must name a trace
    present in the file (the latter skipped when spans were dropped)."""
    classified = set()
    referenced = []          # (tid, trace_id) named by provenance instants
    aborted = []             # aborted txn root events
    trace_ids = set()
    for event in doc.get("traceEvents", ()):
        args = event.get("args") or {}
        if event.get("ph") == "i" and event.get("name") == "abort.provenance":
            tid = args.get("tid")
            if tid is not None:
                classified.add(tid)
            if args.get("trace") is not None:
                referenced.append((tid, args["trace"]))
        elif event.get("ph") == "X" and "trace_id" in args:
            trace_ids.add(args["trace_id"])
            if event.get("name") == "txn" and args.get("status") == "aborted":
                aborted.append((args.get("tid"), args["trace_id"]))
    violations = []
    for tid, trace_id in aborted:
        if tid is not None and tid not in classified:
            violations.append(Violation(
                "abort-no-provenance", None,
                "aborted txn %s (trace %s) has no abort.provenance instant"
                % (tid, trace_id)))
    if not dropped:
        for tid, trace_id in referenced:
            if trace_id not in trace_ids:
                violations.append(Violation(
                    "provenance-dangling", None,
                    "abort.provenance for tid %s points at trace %s not in "
                    "this file" % (tid, trace_id)))
    return violations


def lint_trace_spans(doc) -> list:
    """Structurally lint a saved Chrome-trace JSON document, honoring
    its ``spans_dropped`` header (see the module docstring).  Includes
    the abort-provenance completeness rules."""
    spans, dropped = spans_from_trace(doc)
    return (_lint(spans, dropped=dropped > 0)
            + _lint_trace_provenance(doc, dropped=dropped > 0))


def _main_spans(docs):
    failed = False
    for path, doc in docs:
        spans, dropped = spans_from_trace(doc)
        violations = lint_trace_spans(doc)
        print("%-32s %6d spans%s: %s" % (
            path, len(spans), " (%d dropped)" % dropped if dropped else "",
            "OK" if not violations else "%d violation%s" % (
                len(violations), "" if len(violations) == 1 else "s"),
        ))
        for violation in violations:
            failed = True
            print("  %s" % violation)
    return 1 if failed else 0


def _main_monitors(docs):
    from .monitor import replay_trace

    failed = False
    for path, doc in docs:
        hub, markers = replay_trace(doc)
        bad = hub.total_violations + markers
        print("%-32s %6d events: %s" % (
            path, hub.events_seen,
            "OK" if not bad else "%d violation%s%s" % (
                hub.total_violations,
                "" if hub.total_violations == 1 else "s",
                ", %d recorded marker%s" % (markers,
                                            "" if markers == 1 else "s")
                if markers else "",
            ),
        ))
        for violation in hub.violations:
            failed = True
            print("  [%s] %s" % (violation["check"], violation["message"]))
        if markers:
            failed = True
            print("  %d monitor.violation marker%s already present in trace"
                  % (markers, "" if markers == 1 else "s"))
    return 1 if failed else 0


def main(argv=None):
    import argparse
    import json
    import sys

    from repro.analysis.report import SCENARIOS, run_scenario

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.lint",
        description="Run report scenarios and lint their span trees "
                    "for structural well-formedness.",
    )
    parser.add_argument("scenarios", nargs="*", metavar="scenario",
                        help="scenarios to lint (default: all; have: %s); "
                             "with --monitors/--spans: trace JSON files"
                             % ", ".join(sorted(SCENARIOS)))
    parser.add_argument("--monitors", action="store_true",
                        help="replay saved Chrome-trace JSON files through "
                             "the offline protocol monitors instead of "
                             "running scenarios")
    parser.add_argument("--spans", action="store_true",
                        help="structurally lint saved Chrome-trace JSON "
                             "files (honoring their spans_dropped header) "
                             "instead of running scenarios")
    args = parser.parse_args(argv)
    if args.monitors and args.spans:
        parser.error("--monitors and --spans are mutually exclusive")
    if args.monitors or args.spans:
        if not args.scenarios:
            parser.error("%s requires at least one trace JSON file"
                         % ("--spans" if args.spans else "--monitors"))
        docs = []
        for path in args.scenarios:
            try:
                with open(path) as fh:
                    docs.append((path, json.load(fh)))
            except (OSError, ValueError) as exc:
                print("error: cannot read %s: %s" % (path, exc),
                      file=sys.stderr)
                return 2
        return _main_spans(docs) if args.spans else _main_monitors(docs)
    names = args.scenarios or sorted(SCENARIOS)
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        parser.error("unknown scenario%s: %s"
                     % ("" if len(unknown) == 1 else "s", ", ".join(unknown)))

    failed = False
    for name in names:
        cluster = run_scenario(name)
        recorder = cluster.obs.spans
        violations = lint_spans(recorder) + lint_provenance(cluster.obs)
        print("%-12s %5d spans, %4d traces: %s" % (
            name, len(recorder.spans), len(recorder.trace_ids()),
            "OK" if not violations else "%d violation%s" % (
                len(violations), "" if len(violations) == 1 else "s"),
        ))
        for violation in violations:
            failed = True
            print("  %s" % violation)
    return 1 if failed else 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
