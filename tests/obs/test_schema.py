"""The report schema: only the current version validates, every
section's shape and cross-field invariants are enforced, and a
malformed document always raises :class:`SchemaError` -- never a
``TypeError`` -- from the library and from ``python -m
repro.obs.schema``."""

import copy
import json

import pytest

from repro.analysis.report import run_scenario
from repro.obs import build_report, validate_report
from repro.obs.schema import REQUIRED_METRICS, SCHEMA_ID, SchemaError, _main
from repro.obs.sketch import QuantileSketch


def summary(value=0.5):
    sketch = QuantileSketch()
    sketch.observe(value)
    return sketch.to_summary()


def minimal(sites=True):
    return {
        "schema": SCHEMA_ID,
        "generator": "repro test",
        "scenario": "synthetic",
        "virtual_time": 1.0,
        "sites": ({"1": {name: summary() for name in REQUIRED_METRICS}}
                  if sites else {}),
        "counters": {},
        "spans": {"recorded": 0, "dropped": 0, "traces": 0},
    }


@pytest.fixture(scope="module")
def report():
    return build_report(run_scenario("commit"), scenario="commit")


def _expect(doc, match):
    with pytest.raises(SchemaError, match=match):
        validate_report(doc)


# ----------------------------------------------------------------------
# the one version
# ----------------------------------------------------------------------

def test_current_schema_is_v10():
    assert SCHEMA_ID == "repro.bench_report/10"
    validate_report(minimal())


def test_v9_is_rejected_naming_the_version():
    doc = minimal()
    doc["schema"] = "repro.bench_report/9"
    with pytest.raises(SchemaError) as excinfo:
        validate_report(doc)
    message = str(excinfo.value)
    assert "'repro.bench_report/9'" in message
    assert len(message.splitlines()) == 1


def test_generated_report_carries_telemetry_sections(report):
    assert report["schema"] == SCHEMA_ID
    validate_report(report)
    assert report["timeline"]["points"] > 0
    assert report["timeline"]["tick"] == 0.25
    assert report["monitors"]["total_violations"] == 0
    assert report["monitors"]["events"] > 0
    assert report["monitors"]["strict"] is True


def test_empty_sites_skips_the_required_metrics():
    """A grid document (the scaling sweep) carries an empty ``sites``
    object: no merged latencies exist, so none are required."""
    validate_report(minimal(sites=False))


def test_sites_still_require_the_metrics():
    doc = minimal()
    del doc["sites"]["1"]["lock.wait"]
    _expect(doc, "required metric")


def test_site_summary_quantiles_must_be_monotone():
    doc = minimal()
    doc["sites"]["1"]["rpc.rtt"]["p95"] = -1.0
    _expect(doc, "not monotone")


def test_site_summary_buckets_must_account_for_every_sample():
    doc = minimal()
    doc["sites"]["1"]["rpc.rtt"]["count"] = 2
    _expect(doc, "buckets \\+ zeros \\+ collapsed")


# ----------------------------------------------------------------------
# timeline / monitors
# ----------------------------------------------------------------------

def test_timeline_grid_invariant_is_enforced(report):
    doc = copy.deepcopy(report)
    site = next(iter(doc["timeline"]["sites"]))
    gauges = doc["timeline"]["sites"][site]["gauges"]
    name = next(iter(gauges))
    gauges[name] = gauges[name][:-1]         # one sample short
    _expect(doc, "samples, expected")


def test_timeline_rate_length_is_enforced(report):
    doc = copy.deepcopy(report)
    for series in doc["timeline"]["sites"].values():
        if series["rates"]:
            name = next(iter(series["rates"]))
            series["rates"][name] = series["rates"][name] + [0]
            break
    else:
        pytest.skip("no rate series in the commit scenario")
    _expect(doc, "samples, expected")


def test_timeline_tick_must_be_positive(report):
    doc = copy.deepcopy(report)
    doc["timeline"]["tick"] = 0
    _expect(doc, "positive number")


def test_monitor_counts_must_sum_to_total(report):
    doc = copy.deepcopy(report)
    doc["monitors"]["violation_counts"] = {"lock.conflicting_grant": 2}
    _expect(doc, "do not sum")


def test_monitor_strict_flag_must_be_boolean(report):
    doc = copy.deepcopy(report)
    doc["monitors"]["strict"] = "yes"
    _expect(doc, "strict")


# ----------------------------------------------------------------------
# matrix
# ----------------------------------------------------------------------

def good_matrix():
    return {
        "grid": {"scenario": ["commit"], "lock_cache": [False, True],
                 "commit_batching": [False, True]},
        "cells": [
            {"scenario": "commit", "lock_cache": lc, "commit_batching": cb,
             "virtual_time": 3.5, "monitors_total_violations": 0,
             "spans_recorded": 10}
            for lc in (False, True) for cb in (False, True)
        ],
    }


def test_matrix_section_validates():
    doc = minimal()
    doc["matrix"] = good_matrix()
    validate_report(doc)


def test_matrix_cell_count_must_match_the_grid():
    doc = minimal()
    doc["matrix"] = good_matrix()
    doc["matrix"]["cells"] = doc["matrix"]["cells"][:-1]
    _expect(doc, "cells for a")


def test_matrix_cells_need_their_axes_and_verdicts():
    for key in ("scenario", "lock_cache", "virtual_time",
                "monitors_total_violations"):
        doc = minimal()
        doc["matrix"] = good_matrix()
        del doc["matrix"]["cells"][0][key]
        _expect(doc, key)


# ----------------------------------------------------------------------
# aborts / waste / hotness
# ----------------------------------------------------------------------

def valid_aborts(total=2):
    return {
        "total": total,
        "causes": {"deadlock": 1, "rpc_timeout": total - 1},
        "by_site": {"1": total},
        "retries": {"successes": 3, "retried_successes": 1, "attempts": 5,
                    "retries_per_success": 2 / 3, "max_chain": 3,
                    "abandoned": 0},
        "storm": {"window_s": 1.0, "peak": 2, "at": 0.5},
    }


def valid_waste():
    return {
        "attempts": 1,
        "wasted_ns": 100,
        "committed_ns": 900,
        "goodput_fraction": 0.9,
        "categories": {"lock_wait": 60, "compute": 40},
        "by_cause": {"deadlock": {"attempts": 1, "wasted_ns": 100}},
        "by_mix": {"banking": 100},
        "hot_ranges": [{"file": "/f", "range_start": 0, "wasted_ns": 60}],
    }


def valid_hotness():
    return {
        "window_s": 1.0,
        "windows": 2,
        "alpha": 0.3,
        "abort_weight": 0.25,
        "keys": 1,
        "top": [{"site": "1", "file": "/f", "range_start": 0,
                 "score": 0.4, "peak_score": 0.5, "wait_s": 0.7,
                 "aborts": 1, "scores": [0.5, 0.4]}],
        "ranking": [["1:/f:0"], ["1:/f:0"]],
    }


def valid_slo():
    return {
        "window": 0.25, "windows": 2, "until": 0.5, "worst_burn": 0.5,
        "total_breaches": 0, "ok": True,
        "mixes": {"banking": {"ok": True, "worst_burn": 0.5, "objectives": [{
            "name": "p99", "metric": "commit.latency", "kind": "latency",
            "bound": 1.0, "budget": 0.1, "total": 20, "bad": 1,
            "burn": 0.5, "worst_burn": 0.5, "ok": True,
            "series": [0.0, 0.5],
        }]}},
    }


def scaling_with_waste(categories):
    return {
        "workload": {"mix": "banking", "keys": "zipf", "arrival": "closed"},
        "cells": [{
            "sites": 1, "clients": 4, "theta": 0.9, "seed": 1,
            "committed": 4, "aborted": 0, "commits_per_sec": 10.0,
            "abort_rate": 0.0, "p50_ms": 1.0, "p95_ms": 1.0,
            "p99_ms": 1.0, "p999_ms": 1.0, "makespan_s": 0.4,
            "goodput_fraction": 1.0, "dominant_abort_cause": None,
            "hot_ranges": [], "waste": {
                "wasted_ns": 10, "categories": categories,
            },
        }],
    }


def test_generated_report_carries_the_provenance_sections(report):
    assert report["schema"] == SCHEMA_ID
    assert "aborts" in report and "waste" in report and "hotness" in report
    validate_report(report)


def test_generated_waste_section_sums_exactly(report):
    waste = report["waste"]
    assert sum(waste["categories"].values()) == waste["wasted_ns"]
    assert sum(e["wasted_ns"] for e in waste["by_cause"].values()) \
        == waste["wasted_ns"]


def test_generated_aborts_section_is_consistent(report):
    aborts = report["aborts"]
    assert sum(aborts["causes"].values()) == aborts["total"]
    assert aborts["storm"]["peak"] <= aborts["total"]


def test_generated_hotness_series_match_window_count(report):
    hotness = report["hotness"]
    for row in hotness["top"]:
        assert len(row["scores"]) == hotness["windows"]


@pytest.mark.parametrize("section,payload", [
    ("aborts", valid_aborts()),
    ("waste", valid_waste()),
    ("hotness", valid_hotness()),
])
def test_provenance_sections_validate(section, payload):
    doc = minimal()
    doc[section] = copy.deepcopy(payload)
    validate_report(doc)


def test_waste_category_sum_mismatch_raises():
    doc = minimal()
    doc["waste"] = valid_waste()
    doc["waste"]["categories"]["compute"] += 1
    _expect(doc, "category sum")


def test_waste_by_cause_sum_mismatch_raises():
    doc = minimal()
    doc["waste"] = valid_waste()
    doc["waste"]["by_cause"]["deadlock"]["wasted_ns"] = 99
    _expect(doc, "by_cause")


def test_waste_goodput_fraction_mismatch_raises():
    doc = minimal()
    doc["waste"] = valid_waste()
    doc["waste"]["goodput_fraction"] = 0.5
    _expect(doc, "goodput")


def test_waste_unknown_cause_raises():
    doc = minimal()
    doc["waste"] = valid_waste()
    doc["waste"]["by_cause"] = {"meteor": {"attempts": 1, "wasted_ns": 100}}
    _expect(doc, "cause")


def test_aborts_cause_sum_mismatch_raises():
    doc = minimal()
    doc["aborts"] = valid_aborts()
    doc["aborts"]["causes"]["deadlock"] += 1
    _expect(doc, "sum")


def test_aborts_unknown_cause_raises():
    doc = minimal()
    doc["aborts"] = valid_aborts()
    doc["aborts"]["causes"] = {"meteor": 2}
    _expect(doc, "cause")


def test_aborts_storm_peak_above_total_raises():
    doc = minimal()
    doc["aborts"] = valid_aborts()
    doc["aborts"]["storm"]["peak"] = 99
    _expect(doc, "peak")


def test_hotness_scores_length_mismatch_raises():
    doc = minimal()
    doc["hotness"] = valid_hotness()
    doc["hotness"]["top"][0]["scores"] = [0.4]
    _expect(doc, "scores")


def test_hotness_last_sample_must_equal_headline_score():
    doc = minimal()
    doc["hotness"] = valid_hotness()
    doc["hotness"]["top"][0]["scores"] = [0.5, 0.9]
    _expect(doc, "score")


def test_hotness_ranking_length_mismatch_raises():
    doc = minimal()
    doc["hotness"] = valid_hotness()
    doc["hotness"]["ranking"] = [["1:/f:0"]]
    _expect(doc, "ranking")


def test_slo_burn_must_match_its_arithmetic():
    doc = minimal()
    doc["slo"] = valid_slo()
    validate_report(doc)
    doc["slo"]["mixes"]["banking"]["objectives"][0]["burn"] = 0.25
    _expect(doc, "burn 0.250000 != \\(bad/total\\)/budget")


def test_scaling_cell_waste_sum_mismatch_raises():
    doc = minimal()
    doc["scaling"] = scaling_with_waste({"lock_wait": 9})
    _expect(doc, "category sum")


# ----------------------------------------------------------------------
# summed fields are type-checked before they are summed
# ----------------------------------------------------------------------

def _critpath_txn(doc):
    return doc["critpath"]["transactions"][0]


def _sketches(doc):
    doc["sketches"] = {"1": {"banking": {"client.latency": summary()}}}
    return doc["sketches"]["1"]["banking"]["client.latency"]


def _with(section, payload):
    def install(doc):
        doc[section] = payload()
        return doc[section]
    return install


#: (how to reach the summed mapping, key to poison -- None for its
#: first entry -- and the bad value).
_SUMMED = {
    "critpath-categories-str": (
        lambda d: _critpath_txn(d)["categories"], "cpu", "7"),
    "critpath-categories-none": (
        lambda d: _critpath_txn(d)["categories"], "cpu", None),
    "critpath-commit-categories": (
        lambda d: _critpath_txn(d)["commit"]["categories"], "cpu", "7"),
    "sites-buckets": (
        lambda d: d["sites"]["1"]["lock.wait"]["buckets"], None, "1"),
    "sketches-buckets": (lambda d: _sketches(d)["buckets"], None, "1"),
    "scaling-waste-categories": (
        lambda d: _with("scaling", lambda: scaling_with_waste(
            {"lock_wait": 9}))(d)["cells"][0]["waste"]["categories"],
        "lock_wait", "10"),
    "waste-categories": (
        lambda d: _with("waste", valid_waste)(d)["categories"],
        "compute", "40"),
    "waste-by-cause": (
        lambda d: _with("waste", valid_waste)(d)["by_cause"]["deadlock"],
        "wasted_ns", "100"),
    "aborts-causes": (
        lambda d: _with("aborts", valid_aborts)(d)["causes"],
        "deadlock", "1"),
    "monitors-violation-counts": (
        lambda d: d["monitors"]["violation_counts"], "lock.x", "0"),
    "slo-bad": (
        lambda d: _with("slo", valid_slo)(d)["mixes"]["banking"]
        ["objectives"][0], "bad", "1"),
    "hotness-score": (
        lambda d: _with("hotness", valid_hotness)(d)["top"][0],
        "score", "0.4"),
}


@pytest.mark.parametrize("reach,key,bad", list(_SUMMED.values()),
                         ids=list(_SUMMED))
def test_summed_fields_must_be_numbers(report, reach, key, bad):
    """Every sum or arithmetic invariant checks its operands' types
    first: a string or null where a number belongs is a SchemaError."""
    doc = copy.deepcopy(report)
    target = reach(doc)
    target[next(iter(target)) if key is None else key] = bad
    _expect(doc, None)


# ----------------------------------------------------------------------
# the command line
# ----------------------------------------------------------------------

def test_schema_cli_accepts_generated_report(tmp_path, capsys, report):
    path = tmp_path / "r.json"
    path.write_text(json.dumps(report))
    assert _main([str(path)]) == 0
    assert "OK" in capsys.readouterr().out


def test_schema_cli_answers_an_invalid_document_with_exit_1(tmp_path, capsys,
                                                            report):
    """Invalid is not a crash: one ``invalid:`` block on stderr naming
    the problem, exit 1, no traceback."""
    doc = copy.deepcopy(report)
    _critpath_txn(doc)["categories"]["cpu"] = "7"
    path = tmp_path / "r.json"
    path.write_text(json.dumps(doc))
    assert _main([str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid: %s" % path)
    assert "critpath.transactions[0].categories" in err
    assert "Traceback" not in err


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
