"""The perf-report pipeline end to end: run, print, write, validate."""

import json
import pathlib

import pytest

from repro.analysis.report import SCENARIOS, main, run_scenario
from repro.obs import build_report, validate_report
from repro.obs.schema import SECTIONS, SchemaError


def test_cli_writes_valid_report_and_trace(tmp_path, capsys):
    out = tmp_path / "BENCH_report.json"
    trace = tmp_path / "BENCH_trace.json"
    rc = main(["commit", "--out", str(out), "--trace-out", str(trace)])
    assert rc == 0

    report = json.loads(out.read_text())
    validate_report(report)  # raises on any schema violation
    assert report["scenario"] == "commit"
    for metric in ("lock.wait", "rpc.rtt", "disk.io", "commit.latency"):
        assert any(metric in metrics for metrics in report["sites"].values())

    chrome = json.loads(trace.read_text())
    assert any(e["ph"] == "X" for e in chrome["traceEvents"])

    printed = capsys.readouterr().out
    assert "commit.latency" in printed
    assert "p95ms" in printed


#: scenario -> (committed report, committed trace if there is one)
COMMITTED = {
    "commit": ("BENCH_report.json", "BENCH_trace.json"),
    "lockcache": ("BENCH_lockcache.json", None),
    "throughput": ("BENCH_throughput.json", None),
}


@pytest.mark.parametrize("scenario", sorted(COMMITTED))
def test_cli_reproduces_the_committed_artifacts(tmp_path, scenario):
    """No report carries a host-time number, so the committed
    ``BENCH_*.json`` regenerate byte for byte with no extra flag."""
    report, trace = COMMITTED[scenario]
    root = pathlib.Path(__file__).resolve().parents[2]
    out = tmp_path / "report.json"
    trace_out = tmp_path / "trace.json"
    rc = main([scenario, "--out", str(out),
               "--trace-out", str(trace_out) if trace else ""])
    assert rc == 0
    assert out.read_bytes() == (root / report).read_bytes()
    if trace:
        assert trace_out.read_bytes() == (root / trace).read_bytes()


def test_cli_trace_optional(tmp_path):
    out = tmp_path / "r.json"
    rc = main(["commit", "--out", str(out), "--trace-out", ""])
    assert rc == 0
    assert out.exists()
    assert not (tmp_path / "BENCH_trace.json").exists()


def test_every_scenario_produces_required_metrics(built_scenario):
    from repro.obs import REQUIRED_METRICS

    for name in SCENARIOS:
        cluster = built_scenario(name)
        report = build_report(cluster, scenario=name)
        validate_report(report)
        for metric in REQUIRED_METRICS:
            assert any(metric in m for m in report["sites"].values()), (
                "%s missing from scenario %s" % (metric, name))


def test_the_slo_table_prints_one_row_per_objective(built_scenario, capsys):
    """The scaling scenario declares its mix's SLOs, so its report has
    an ``slo`` section; the CLI prints it with its table's renderer."""
    section = build_report(built_scenario("scaling"), scenario="scaling")["slo"]
    print(SECTIONS["slo"].render(section))
    header, rule, *rows, verdict = capsys.readouterr().out.splitlines()
    assert header.split() == ["mix", "objective", "bound", "total", "bad",
                              "budget", "burn", "worstwin", "verdict"]
    assert set(rule) == {"-"}
    expected = [(mix, o) for mix in sorted(section["mixes"])
                for o in section["mixes"][mix]["objectives"]]
    assert len(rows) == len(expected) >= 2
    for row, (mix, objective) in zip(rows, expected):
        cells = row.split()
        assert cells[:2] == [mix, objective["name"]]
        assert [int(c) for c in cells[3:5]] == [objective["total"],
                                                objective["bad"]]
        assert float(cells[6]) == pytest.approx(objective["burn"], abs=0.005)
        assert cells[-1] == ("ok" if objective["ok"] else "BREACH")
    assert verdict.startswith("worst burn %.2f over %d window(s)"
                              % (section["worst_burn"], section["windows"]))
    assert verdict.endswith("all objectives hold" if section["ok"]
                            else "%d objective(s) breached"
                            % section["total_breaches"])


def test_run_scenario_rejects_unknown_name():
    with pytest.raises(KeyError):
        run_scenario("nonsense")


def test_validator_rejects_tampered_report(tmp_path):
    report = build_report(run_scenario("commit"), scenario="commit")
    report["sites"]["1"]["lock.wait"]["p95"] = -1.0  # impossible
    with pytest.raises(SchemaError):
        validate_report(report)


def test_render_table_skips_byte_metrics():
    report = build_report(run_scenario("commit"), scenario="commit")
    table = SECTIONS["sites"].render(report["sites"])
    assert "net.msg.bytes" not in table
    assert "lock.wait" in table
