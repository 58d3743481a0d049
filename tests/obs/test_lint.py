"""Span-tree lint: clean real scenarios, synthetic violations, CLI."""

import pytest

from repro.analysis.report import run_scenario
from repro.obs import Observability
from repro.obs.lint import lint_spans, main
from tests.conftest import drive


def obs_on(eng):
    return Observability(eng).install()


# ----------------------------------------------------------------------
# real scenarios are clean
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", ["commit", "wal", "lockcache", "throughput"])
def test_report_scenarios_lint_clean(name):
    cluster = run_scenario(name)
    assert lint_spans(cluster.obs.spans) == []


# ----------------------------------------------------------------------
# synthetic violations are caught
# ----------------------------------------------------------------------

def test_unclosed_span_flagged(eng):
    obs = obs_on(eng)

    def prog():
        obs.span("leaky", site_id=1)
        yield eng.timeout(0.1)

    drive(eng, prog())
    rules = [v.rule for v in lint_spans(obs.spans)]
    assert rules == ["unclosed"]


def test_trace_mismatch_flagged(eng):
    obs = obs_on(eng)

    def prog():
        parent = obs.span("parent")
        child = obs.span("child")
        child.trace_id = parent.trace_id + 999  # corrupt the propagation
        obs.end(child)
        obs.end(parent)
        yield eng.timeout(0)

    drive(eng, prog())
    violations = lint_spans(obs.spans)
    assert "trace-mismatch" in {v.rule for v in violations}


def test_time_travel_flagged(eng):
    obs = obs_on(eng)

    def prog():
        parent = obs.span("parent")
        child = obs.span("child")
        child.start = parent.start - 1.0        # impossible
        obs.end(child)
        obs.end(parent)
        yield eng.timeout(0)

    drive(eng, prog())
    assert "time-travel" in {v.rule for v in lint_spans(obs.spans)}


def test_same_track_late_start_flagged(eng):
    obs = obs_on(eng)

    def prog():
        parent = obs.span("parent")
        yield eng.timeout(0.1)
        obs.end(parent)
        yield eng.timeout(0.1)
        late = obs.span("late", parent=parent)   # same process track
        obs.end(late)

    drive(eng, prog())
    assert "late-start" in {v.rule for v in lint_spans(obs.spans)}


def test_async_child_outliving_parent_is_allowed(eng):
    """The legitimate pattern: a spawned process's span starts after
    the inherited parent closed -- different track, no violation."""
    obs = obs_on(eng)

    def worker():
        yield eng.timeout(0.2)
        span = obs.span("async-work")
        yield eng.timeout(0.1)
        obs.end(span)

    def prog():
        parent = obs.span("parent")
        eng.process(worker())     # inherits the open parent span
        yield eng.timeout(0.05)
        obs.end(parent)

    drive(eng, prog())
    assert lint_spans(obs.spans) == []


def test_orphan_flagged_only_when_nothing_dropped(eng):
    obs = obs_on(eng)

    def prog():
        parent = obs.span("parent")
        child = obs.span("child")
        obs.end(child)
        obs.end(parent)
        yield eng.timeout(0)

    drive(eng, prog())
    recorder = obs.spans
    # Remove the parent from the record: the child is now an orphan.
    recorder.spans = [s for s in recorder.spans if s.name != "parent"]
    violations = lint_spans(recorder)
    assert {v.rule for v in violations} == {"orphan", "no-root"}
    # ... unless spans were dropped at capacity, when absence is expected.
    recorder.dropped = 1
    assert lint_spans(recorder) == []


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def test_cli_all_scenarios_ok(capsys, monkeypatch, built_scenario):
    # main() looks run_scenario up in the report module when called;
    # the scaling scenario lints its 64-client reference column.
    monkeypatch.setattr("repro.analysis.report.run_scenario", built_scenario)
    assert main([]) == 0
    out = capsys.readouterr().out
    for name in ("commit", "wal", "lockcache", "throughput", "scaling"):
        assert name in out
    assert "OK" in out and "violation" not in out


def test_cli_rejects_unknown_scenario(capsys):
    with pytest.raises(SystemExit):
        main(["bogus"])
    assert "unknown scenario" in capsys.readouterr().err


# ----------------------------------------------------------------------
# --monitors: offline trace replay
# ----------------------------------------------------------------------

def test_cli_monitors_replays_committed_trace_clean(tmp_path, capsys):
    import json

    from repro.obs.export import to_chrome_trace

    cluster = run_scenario("commit")
    path = tmp_path / "BENCH_trace.json"
    path.write_text(json.dumps(to_chrome_trace(
        cluster.obs.spans, metrics=cluster.obs.metrics,
        timeline=cluster.obs.timeline)))
    assert main(["--monitors", str(path)]) == 0
    out = capsys.readouterr().out
    assert "OK" in out and "violation" not in out


def test_cli_monitors_flags_a_contradictory_trace(tmp_path, capsys):
    import json

    doc = {"traceEvents": [
        {"ph": "X", "name": "2pc.prepare", "pid": 3, "tid": 0,
         "ts": 0, "dur": 1000,
         "args": {"tid": "t1", "vote": "no", "coordinator": 1}},
        {"ph": "X", "name": "2pc.apply", "pid": 3, "tid": 0,
         "ts": 2000, "dur": 100, "args": {"tid": "t1"}},
    ]}
    path = tmp_path / "bad_trace.json"
    path.write_text(json.dumps(doc))
    assert main(["--monitors", str(path)]) == 1
    out = capsys.readouterr().out
    assert "2pc.commit_after_no" in out


def test_cli_monitors_flags_recorded_violation_markers(tmp_path, capsys):
    import json

    doc = {"traceEvents": [
        {"ph": "i", "name": "monitor.violation", "pid": 1, "tid": 0,
         "ts": 500, "args": {"check": "lock.conflicting_grant"}},
    ]}
    path = tmp_path / "marked_trace.json"
    path.write_text(json.dumps(doc))
    assert main(["--monitors", str(path)]) == 1
    assert "marker" in capsys.readouterr().out


def test_cli_monitors_requires_a_trace_path(capsys):
    with pytest.raises(SystemExit):
        main(["--monitors"])
    assert "requires at least one" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["--monitors", "--spans"])
@pytest.mark.parametrize("content", [None, "{not json"],
                         ids=["missing", "malformed"])
def test_cli_reports_unreadable_trace_with_exit_2(tmp_path, capsys, mode,
                                                  content):
    """Unreadable is not a lint failure: one ``cannot read`` line and
    exit 2, like ``repro.analysis.diff`` / ``timeline``."""
    path = tmp_path / "trace.json"
    if content is not None:
        path.write_text(content)
    assert main([mode, str(path)]) == 2
    err = capsys.readouterr().err
    assert "cannot read %s" % path in err and len(err.splitlines()) == 1
