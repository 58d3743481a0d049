"""Scenario-matrix runner: cross-process merge correctness.

The acceptance bar: a merged matrix report produced by a worker pool is
*identical* to the one produced by running the same grid sequentially
in-process, and the merged sketches equal what a single metrics hub
would have recorded.
"""

import json

import pytest

from repro.analysis.cell import run_grid
from repro.analysis.matrix import (DEFAULT_SCENARIOS, grid_cells, main,
                                   merge_reports, render_matrix_table,
                                   run_cell)
from repro.obs import validate_report
from repro.obs.sketch import QuantileSketch

#: The small grid the tests sweep: one scenario, both feature axes.
SMALL_GRID = grid_cells(scenarios=("commit",))


def test_grid_cells_cover_the_cross_product():
    cells = grid_cells()
    assert len(cells) == len(DEFAULT_SCENARIOS) * 2 * 2
    assert len(set(cells)) == len(cells)


@pytest.fixture(scope="module")
def sequential_results():
    return run_grid(run_cell, SMALL_GRID, workers=1)


def test_cell_reports_validate_and_are_monitor_clean(sequential_results):
    for result in sequential_results:
        report = result["report"]
        validate_report(report)
        assert report["monitors"]["total_violations"] == 0


def test_merged_report_validates(sequential_results):
    doc = merge_reports(sequential_results, scenarios=("commit",))
    validate_report(doc)
    assert doc["scenario"] == "matrix"
    assert len(doc["matrix"]["cells"]) == len(SMALL_GRID)
    assert all(c["monitors_total_violations"] == 0
               for c in doc["matrix"]["cells"])


def test_merged_sites_equal_cellwise_merge(sequential_results):
    """The merged sites section is exactly what folding each cell's
    sketches into one yields -- count, sum, buckets and percentiles --
    and the merged counters are the cells' sums."""
    doc = merge_reports(sequential_results, scenarios=("commit",))
    expected, counters = {}, {}
    for result in sequential_results:
        report = result["report"]
        for site, metrics in report["sites"].items():
            bucket = expected.setdefault(site, {})
            for name, summary in metrics.items():
                sketch = QuantileSketch.from_summary(summary)
                if name in bucket:
                    bucket[name].merge(sketch)
                else:
                    bucket[name] = sketch
        for site, values in report["counters"].items():
            for name, value in values.items():
                key = (site, name)
                counters[key] = counters.get(key, 0) + value
    assert set(doc["sites"]) == set(expected)
    for site, metrics in expected.items():
        for name, sketch in metrics.items():
            assert doc["sites"][site][name] == sketch.to_summary(), (site, name)
    assert {(site, name): value
            for site, values in doc["counters"].items()
            for name, value in values.items()} == counters


def test_parallel_merge_identical_to_sequential(sequential_results):
    """Two worker processes, same grid: the merged report is identical
    -- sketches, counters, span totals, cell rows."""
    parallel_results = run_grid(run_cell, SMALL_GRID, workers=2)
    seq_doc = merge_reports(sequential_results, scenarios=("commit",))
    par_doc = merge_reports(parallel_results, scenarios=("commit",))
    assert par_doc == seq_doc
    # JSON round-trip stability (what the CLI writes is what merges).
    assert json.loads(json.dumps(par_doc)) == seq_doc


def test_cells_honour_their_feature_axes():
    off, on = map(run_cell, grid_cells(scenarios=("commit",),
                                       commit_batching=(False,)))
    counters_on = on["report"]["counters"]
    counters_off = off["report"]["counters"]
    assert any("lock.cache" in name
               for values in counters_on.values() for name in values)
    assert not any("lock.cache" in name
                   for values in counters_off.values() for name in values)


def test_render_matrix_table_has_a_row_per_cell(sequential_results):
    doc = merge_reports(sequential_results, scenarios=("commit",))
    table = render_matrix_table(doc["matrix"])
    # header + rule + one row per cell
    assert len(table.splitlines()) == 2 + len(SMALL_GRID)
    assert "commit" in table


@pytest.mark.parametrize("scenarios", ["", ",", "commit,bogus"])
def test_cli_rejects_an_empty_or_unknown_scenario_axis(scenarios, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--scenarios", scenarios, "--workers", "1"])
    assert exit_info.value.code == 2
    assert "scenario" in capsys.readouterr().err
