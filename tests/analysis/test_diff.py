"""Bench-report diffing and the regression gate's exit codes."""

import copy
import json

import pytest

from repro.analysis.diff import (
    DiffError,
    diff_reports,
    evaluate_check,
    main,
    parse_check,
    render_diff,
    resolve_path,
)
from repro.analysis.report import run_scenario
from repro.obs import build_report


@pytest.fixture(scope="module")
def commit_report():
    cluster = run_scenario("commit")
    return build_report(cluster, scenario="commit")


# ----------------------------------------------------------------------
# path resolution
# ----------------------------------------------------------------------

def test_resolve_dotted_metric_names(commit_report):
    value = resolve_path(commit_report, "sites.1.lock.wait.p95")
    assert value == commit_report["sites"]["1"]["lock.wait"]["p95"]


def test_resolve_plain_and_list_paths(commit_report):
    assert resolve_path(commit_report, "virtual_time") == \
        commit_report["virtual_time"]
    first = resolve_path(commit_report, "critpath.transactions.0.total_ns")
    assert first == commit_report["critpath"]["transactions"][0]["total_ns"]


def test_resolve_backtracks_past_greedy_dead_ends():
    doc = {"a.b": {"x": 1}, "a": {"b": {"y": 2}}}
    # Greedy 'a.b' matches first but has no 'y'; backtracking finds it.
    assert resolve_path(doc, "a.b.y") == 2
    assert resolve_path(doc, "a.b.x") == 1


def test_resolve_dead_path_raises(commit_report):
    with pytest.raises(DiffError):
        resolve_path(commit_report, "sites.1.no.such.metric")


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------

def test_parse_check_forms():
    assert parse_check("throughput.speedup>=1.8") == \
        ("throughput.speedup", ">=", 1.8)
    assert parse_check(" delta.sites.1.lock.wait.p95 <= 0.25 ") == \
        ("delta.sites.1.lock.wait.p95", "<=", 0.25)
    with pytest.raises(DiffError):
        parse_check("no operator here")


def test_evaluate_check_prefixes(commit_report):
    old = copy.deepcopy(commit_report)
    old["sites"]["1"]["lock.wait"]["p95"] = 0.010
    new = copy.deepcopy(commit_report)
    new["sites"]["1"]["lock.wait"]["p95"] = 0.012

    result = evaluate_check("sites.1.lock.wait.p95<=0.012", old, new)
    assert result["ok"] and result["value"] == 0.012
    result = evaluate_check("old.sites.1.lock.wait.p95==0.010", old, new)
    assert result["ok"]
    result = evaluate_check("delta.sites.1.lock.wait.p95<=0.1", old, new)
    assert not result["ok"]                 # +20% > 10% allowance
    assert result["value"] == pytest.approx(0.2)


# ----------------------------------------------------------------------
# diffing
# ----------------------------------------------------------------------

def test_identical_reports_diff_empty(commit_report):
    diff = diff_reports(commit_report, commit_report)
    assert diff["metrics"] == []
    assert diff["counters"] == []
    assert diff["added_metrics"] == [] and diff["removed_metrics"] == []
    assert diff["ok"]
    assert "no metric changes" in render_diff(diff)


def _inflate(summary, factor):
    """Doctor a sketch summary's tail without breaking the schema's
    quantile-monotonicity check."""
    for field in ("p95", "p99", "p999", "max"):
        summary[field] *= factor


def test_changed_metric_and_removed_metric_reported(commit_report):
    new = copy.deepcopy(commit_report)
    _inflate(new["sites"]["1"]["lock.wait"], 2)
    del new["sites"]["1"]["rpc.rtt"]
    diff = diff_reports(commit_report, new)
    changed = [(m["site"], m["metric"], m["field"]) for m in diff["metrics"]]
    assert ("1", "lock.wait", "p95") in changed
    assert diff["removed_metrics"] == ["1/rpc.rtt"]


def test_invalid_report_raises(commit_report):
    with pytest.raises(DiffError):
        diff_reports({"schema": "bogus"}, commit_report)


# ----------------------------------------------------------------------
# CLI exit codes (the acceptance criterion)
# ----------------------------------------------------------------------

def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_ok_exit_zero(tmp_path, commit_report, capsys):
    old = _write(tmp_path, "old.json", commit_report)
    new = _write(tmp_path, "new.json", commit_report)
    rc = main([old, new, "--fail-on", "virtual_time>0"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_doctored_report_fails_gate(tmp_path, commit_report, capsys):
    doctored = copy.deepcopy(commit_report)
    _inflate(doctored["sites"]["1"]["commit.latency"], 10)
    old = _write(tmp_path, "old.json", commit_report)
    new = _write(tmp_path, "new.json", doctored)
    rc = main([old, new,
               "--fail-on", "delta.sites.1.commit.latency.p95<=0.10"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_writes_json_artifact(tmp_path, commit_report):
    old = _write(tmp_path, "old.json", commit_report)
    new = _write(tmp_path, "new.json", commit_report)
    artifact = tmp_path / "diff.json"
    rc = main([old, new, "--json", str(artifact)])
    assert rc == 0
    doc = json.loads(artifact.read_text())
    assert doc["ok"] is True


def test_cli_report_gates_pass_on_a_clean_report(tmp_path, commit_report,
                                                 capsys):
    """The two gates CI holds every rebuilt report to, as one report
    diffed against itself."""
    report = _write(tmp_path, "report.json", commit_report)
    rc = main([report, report,
               "--fail-on", "monitors.total_violations == 0",
               "--fail-on", "timeline.points >= 1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("PASS") == 2 and "FAIL" not in out


def test_cli_breached_report_gate_fails(tmp_path, commit_report, capsys):
    report = _write(tmp_path, "report.json", commit_report)
    assert main([report, report, "--fail-on", "timeline.points <= 0"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_unparseable_gate_is_an_input_error(tmp_path, commit_report,
                                                capsys):
    report = _write(tmp_path, "report.json", commit_report)
    assert main([report, report, "--fail-on", "not an expression"]) == 2
    assert "cannot parse --fail-on" in capsys.readouterr().err


def test_cli_malformed_inputs_exit_two(tmp_path, commit_report, capsys):
    garbled = tmp_path / "bad.json"
    garbled.write_text("{not json")
    good = _write(tmp_path, "good.json", commit_report)
    assert main([str(garbled), good]) == 2
    assert main([good, good, "--fail-on", "no.such.path>0"]) == 2
    capsys.readouterr()
