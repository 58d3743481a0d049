"""One cell, one grid: every analysis builder is a ``Cell``.

Each former builder keeps exactly its observer set and config on its
cell (so no committed byte moves), ``build`` attaches exactly what the
cell names, and ``run_grid`` -- the one process pool -- returns the
same rows however it fans out, including when it is called inside a
daemonic pool worker.
"""

import multiprocessing
import pickle

import pytest

from repro.analysis import cell as cellmod
from repro.analysis.cell import Cell, build, run_grid
from repro.analysis.matrix import grid_cells, run_cell
from repro.analysis.report import (SCENARIOS, THROUGHPUT_BASELINE,
                                   scenario_cell)
from repro.analysis.scaling import run_scaling_cell, scaling_cells

SCALING_CONFIG = {"commit_batching": True, "rpc_timeout": 30.0}

#: (observed, monitors, tick, provenance) of each former builder.
REPORT = (True, True, 0.25, True)
MATRIX = (True, True, 0.0, False)
SCALING = (True, True, 0.0, True)
BASELINE = (True, False, 0.0, False)


def observers(cell):
    return (cell.observed, cell.monitors, cell.tick, cell.provenance)


def test_report_cells_keep_the_report_observer_set_and_config():
    configs = {"commit": {}, "wal": {}, "lockcache": {"lock_cache": True},
               "throughput": SCALING_CONFIG, "scaling": SCALING_CONFIG}
    assert set(configs) == set(SCENARIOS)
    for name, config in configs.items():
        cell = scenario_cell(name)
        assert cell.scenario == name and cell.sites == 3
        assert observers(cell) == REPORT, name
        assert dict(cell.config) == config, name
    corner = scenario_cell("scaling")
    assert (corner.clients, corner.theta) == (1024, 0.9)
    with pytest.raises(KeyError):
        scenario_cell("nonsense")


def test_matrix_cells_keep_the_matrix_observer_set_and_axes():
    cells = grid_cells(scenarios=("commit", "lockcache"))
    assert len(cells) == 8
    for cell in cells:
        assert observers(cell) == MATRIX and cell.sites == 3
        assert set(dict(cell.config)) == {"lock_cache", "commit_batching"}
    assert [dict(c.config) for c in cells[:4]] == [
        {"lock_cache": lc, "commit_batching": cb}
        for lc in (False, True) for cb in (False, True)]


def test_scaling_cells_and_the_throughput_baseline_keep_their_sets():
    for cell in scaling_cells():
        assert cell.scenario is None
        assert observers(cell) == SCALING
        assert dict(cell.config) == SCALING_CONFIG
    assert observers(THROUGHPUT_BASELINE) == BASELINE
    assert dict(THROUGHPUT_BASELINE.config) == {"commit_batching": False,
                                                "rpc_timeout": 30.0}


def test_build_attaches_exactly_the_cells_observers():
    for cell in (scenario_cell("commit"), grid_cells(("commit",))[0],
                 scaling_cells(sites=(1,))[0], THROUGHPUT_BASELINE):
        cluster = build(cell)
        obs = cluster.obs
        assert cluster.cell is cell
        assert sorted(cluster.sites) == list(range(1, cell.sites + 1))
        for field, value in dict(cell.config).items():
            assert getattr(cluster.config, field) == value
        assert (obs.monitors is not None) is cell.monitors
        assert obs.monitors is None or obs.monitors.strict
        assert (obs.timeline is not None) is bool(cell.tick)
        assert (obs.provenance is not None) is cell.provenance
    assert build(Cell(observed=False)).obs is None


def test_cell_is_frozen_hashable_and_picklable_with_sorted_config():
    cell = Cell(scenario="commit", config={"lock_cache": True,
                                           "commit_batching": False})
    assert cell.config == (("commit_batching", False), ("lock_cache", True))
    assert cell == Cell(scenario="commit", config=cell.config)
    assert hash(cell) == hash(Cell(scenario="commit", config=cell.config))
    assert pickle.loads(pickle.dumps(cell)) == cell
    with pytest.raises(AttributeError):
        cell.sites = 1


#: One small grid per grid runner.
GRIDS = [
    pytest.param(run_cell, grid_cells(scenarios=("commit",)), id="matrix"),
    pytest.param(run_scaling_cell,
                 scaling_cells(sites=(1,), clients=(8, 16), thetas=(0.9,)),
                 id="scaling"),
]


def test_two_workers_equal_sequential_on_the_scaling_grid():
    # The matrix's twin is test_matrix.py's merge-identity test.
    fn, cells = GRIDS[1].values
    assert run_grid(fn, cells, workers=2) == run_grid(fn, cells, workers=1)


@pytest.mark.parametrize("fn, cells", GRIDS)
def test_run_grid_inside_a_daemonic_worker_runs_sequentially(
        fn, cells, monkeypatch):
    sequential = run_grid(fn, cells, workers=1)

    def no_pool(method):
        raise AssertionError("a daemonic worker cannot start a pool")

    monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
    monkeypatch.setattr(cellmod.multiprocessing, "get_context", no_pool)
    assert run_grid(fn, cells, workers=2) == sequential
