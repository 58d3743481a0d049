"""Schema v5: the timeline/monitors sections validate, their internal
invariants are enforced, and every older schema version still passes."""

import json

import pytest

from repro.analysis.report import run_scenario
from repro.obs import build_report, validate_report
from repro.obs.schema import REQUIRED_METRICS, SCHEMA_ID, SchemaError, _main


def summary(value=0.5):
    return {
        "count": 1, "sum": value, "min": value, "max": value,
        "mean": value, "p50": value, "p95": value, "p99": value,
        "buckets": {"bounds": [], "counts": [1]},
    }


def minimal(version):
    doc = {
        "schema": "repro.bench_report/%d" % version,
        "generator": "repro test",
        "scenario": "synthetic",
        "virtual_time": 1.0,
        "sites": {"1": {name: summary() for name in REQUIRED_METRICS}},
        "spans": {"recorded": 0, "dropped": 0, "traces": 0},
    }
    if version >= 2:
        doc["counters"] = {}
    return doc


@pytest.fixture(scope="module")
def report():
    return build_report(run_scenario("commit"), scenario="commit")


def test_current_schema_is_v6():
    assert SCHEMA_ID == "repro.bench_report/9"


@pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6])
def test_every_schema_version_still_validates(version):
    validate_report(minimal(version))


def test_generated_report_carries_v5_sections(report):
    assert report["schema"] == SCHEMA_ID
    validate_report(report)
    assert report["timeline"]["points"] > 0
    assert report["timeline"]["tick"] == 0.25
    assert report["monitors"]["total_violations"] == 0
    assert report["monitors"]["events"] > 0
    assert report["monitors"]["strict"] is True


def test_telemetry_sections_rejected_on_older_schemas(report):
    doc = minimal(4)
    doc["timeline"] = report["timeline"]
    with pytest.raises(SchemaError, match="timeline section requires"):
        validate_report(doc)
    doc = minimal(4)
    doc["monitors"] = report["monitors"]
    with pytest.raises(SchemaError, match="monitors section requires"):
        validate_report(doc)


def test_timeline_grid_invariant_is_enforced(report):
    doc = json.loads(json.dumps(report))     # deep copy
    site = next(iter(doc["timeline"]["sites"]))
    gauges = doc["timeline"]["sites"][site]["gauges"]
    name = next(iter(gauges))
    gauges[name] = gauges[name][:-1]         # one sample short
    with pytest.raises(SchemaError, match="samples, expected"):
        validate_report(doc)


def test_timeline_rate_length_is_enforced(report):
    doc = json.loads(json.dumps(report))
    for site, series in doc["timeline"]["sites"].items():
        if series["rates"]:
            name = next(iter(series["rates"]))
            series["rates"][name] = series["rates"][name] + [0]
            break
    else:
        pytest.skip("no rate series in the commit scenario")
    with pytest.raises(SchemaError, match="samples, expected"):
        validate_report(doc)


def test_timeline_tick_must_be_positive(report):
    doc = json.loads(json.dumps(report))
    doc["timeline"]["tick"] = 0
    with pytest.raises(SchemaError, match="positive number"):
        validate_report(doc)


def test_monitor_counts_must_sum_to_total(report):
    doc = json.loads(json.dumps(report))
    doc["monitors"]["violation_counts"] = {"lock.conflicting_grant": 2}
    with pytest.raises(SchemaError, match="do not sum"):
        validate_report(doc)


def test_monitor_strict_flag_must_be_boolean(report):
    doc = json.loads(json.dumps(report))
    doc["monitors"]["strict"] = "yes"
    with pytest.raises(SchemaError, match="strict"):
        validate_report(doc)


def test_schema_cli_accepts_generated_report(tmp_path, capsys, report):
    path = tmp_path / "r.json"
    path.write_text(json.dumps(report))
    assert _main([str(path)]) == 0
    assert "OK" in capsys.readouterr().out


@pytest.mark.parametrize("content", [None, "{not json"],
                         ids=["missing", "malformed"])
def test_schema_cli_reports_unreadable_input_with_exit_2(tmp_path, capsys,
                                                         content):
    """Unreadable is not invalid: one ``cannot read`` line and exit 2,
    like ``repro.analysis.diff`` / ``timeline`` -- no traceback, and not
    the exit 1 a schema violation gets."""
    path = tmp_path / "r.json"
    if content is not None:
        path.write_text(content)
    assert _main([str(path)]) == 2
    err = capsys.readouterr().err
    assert "cannot read %s" % path in err and len(err.splitlines()) == 1
