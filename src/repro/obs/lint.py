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
    :mod:`repro.obs.provenance`.  Checked when the run had provenance
    attached.
``provenance-dangling``
    Every abort-provenance record that names a trace id points at a
    recorded trace.  Skipped when the recorder dropped spans (then the
    trace may legitimately be gone while its classification remains).

A recorder keeps every span up to its ``capacity`` and counts the rest
in ``dropped``; when that count is non-zero the three completeness
rules are skipped.

Every rule reads the live run: each scenario is built, run and linted
in this process, so the spans are the recorder's own, with the
timestamps the engine stamped (a saved trace's microsecond round trip
would blur the ``late-start`` comparison).  Run over the report
scenarios (the CI configuration)::

    python -m repro.obs.lint            # all scenarios
    python -m repro.obs.lint commit wal # a subset

Exit codes: 0 clean, 1 a rule was violated, 2 a usage error (an
unknown scenario or option).
"""

from __future__ import annotations

__all__ = ["Violation", "lint_spans", "lint_provenance", "main"]


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


def main(argv=None):
    import argparse

    from repro.analysis.report import SCENARIOS, run_scenario

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.lint",
        description="Run report scenarios and lint their span trees "
                    "for structural well-formedness.",
    )
    parser.add_argument("scenarios", nargs="*", metavar="scenario",
                        help="scenarios to lint (default: all; have: %s)"
                             % ", ".join(sorted(SCENARIOS)))
    args = parser.parse_args(argv)
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
