"""The timeline viewer CLI: sparklines and CSV."""

import json

import pytest

from repro.analysis.report import run_scenario
from repro.analysis.timeline import main, render_csv, render_sparklines
from repro.obs import build_report


@pytest.fixture(scope="module")
def report_path(tmp_path_factory):
    doc = build_report(run_scenario("commit"), scenario="commit")
    path = tmp_path_factory.mktemp("timeline") / "BENCH_report.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_sparkline_rendering(report_path, capsys):
    assert main([report_path]) == 0
    out = capsys.readouterr().out
    assert "timeline:" in out and "ticks" in out
    assert "site 1" in out
    assert "disk.qdepth" in out
    assert "min=" in out and "max=" in out


def test_csv_rendering(report_path, capsys):
    assert main([report_path, "--csv"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("site,kind,name,")
    doc = json.loads(open(report_path).read())
    nseries = sum(
        len(series["gauges"]) + len(series["rates"])
        for series in doc["timeline"]["sites"].values()
    )
    assert len(out) == nseries + 1       # header + one row per series


def test_viewer_takes_no_gate(report_path, capsys):
    """Gates live in ``repro.analysis.diff``; the viewer only renders."""
    with pytest.raises(SystemExit) as exit_info:
        main([report_path, "--fail-on", "timeline.points >= 1"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_report_without_timeline_section_is_rejected(tmp_path, capsys):
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"schema": "repro.bench_report/4"}))
    assert main([str(path)]) == 2
    assert "no timeline section" in capsys.readouterr().err


def test_unreadable_report_is_an_input_error(tmp_path, capsys):
    assert main([str(tmp_path / "missing.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_renderers_accept_empty_sections():
    section = {"tick": 0.25, "ticks": 4, "until": 1.0,
               "points": 0, "dropped": 0, "sites": {}}
    assert "timeline:" in render_sparklines(section)
    assert render_csv(section).startswith("site,kind,name,")
