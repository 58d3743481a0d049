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


def test_cli_lints_only_the_named_scenarios(capsys, monkeypatch,
                                            built_scenario):
    monkeypatch.setattr("repro.analysis.report.run_scenario", built_scenario)
    assert main(["wal", "commit"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["wal", "commit"]
    assert all(line.endswith(": OK") for line in lines)


def test_cli_fails_a_run_with_a_broken_span_tree(capsys, monkeypatch):
    """Exit 1 and one line per violation, under the scenario's line."""
    cluster = run_scenario("commit")
    # An instrumentation site lost its end().
    cluster.obs.spans.spans[-1].end = None
    monkeypatch.setattr("repro.analysis.report.run_scenario",
                        lambda name: cluster)
    assert main(["commit"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("commit") and lines[0].endswith("1 violation")
    assert len(lines) == 2 and lines[1].startswith("  [unclosed] ")


def test_cli_fails_an_abort_without_provenance(capsys, monkeypatch):
    from tests.obs.test_provenance import _deadlock_cluster

    cluster, _t1, _t2 = _deadlock_cluster()
    monkeypatch.setattr("repro.analysis.report.run_scenario",
                        lambda name: cluster)
    assert main(["commit"]) == 0
    capsys.readouterr()
    cluster.obs.provenance.by_tid.clear()
    assert main(["commit"]) == 1
    assert "[abort-no-provenance]" in capsys.readouterr().out


@pytest.mark.parametrize("argv, message", [
    (["bogus"], "unknown scenario: bogus"),
    (["commit", "bogus"], "unknown scenario: bogus"),
    (["bogus", "nope"], "unknown scenarios: bogus, nope"),
    (["commit", "--strict"], "unrecognized arguments: --strict"),
], ids=["unknown", "unknown-after-known", "two-unknown", "unknown-option"])
def test_cli_usage_error_exits_2_before_running_anything(
        capsys, monkeypatch, argv, message):
    def run_scenario(name):
        raise AssertionError("ran %s despite a usage error" % name)

    monkeypatch.setattr("repro.analysis.report.run_scenario", run_scenario)
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err
