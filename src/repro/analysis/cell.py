"""One cell, one grid: every analysis run is a :class:`Cell`.

Report scenarios, the matrix and the scaling grid differ only in their
cells: :func:`build` builds and observes every cluster, :func:`run`
drives it, :func:`run_grid` is the one process pool and
:func:`grid_main` the grid CLIs' shared ``main``.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import time
from dataclasses import dataclass

from repro import Cluster
from repro.config import SystemConfig
from repro.obs import validate_report, write_json
from repro.obs.schema import SECTIONS

__all__ = ["Cell", "build", "run", "run_grid", "grid_main"]


@dataclass(frozen=True)
class Cell:
    """One cluster run; frozen, hashable and picklable.

    ``config``: ``SystemConfig`` overrides as sorted ``(field, value)``
    pairs (a mapping is sorted).  The observer set: ``monitors`` (strict
    protocol monitors), ``tick`` (timeline tick, 0 = none) and
    ``provenance``; ``observed=False`` attaches no observer at all.
    What runs: the report scenario ``scenario`` or, when it is None, the
    scaling workload with ``clients`` clients at Zipf skew ``theta``.
    """

    scenario: str | None = None
    sites: int = 3
    clients: int = 0
    theta: float = 0.0
    config: tuple = ()
    observed: bool = True
    monitors: bool = True
    tick: float = 0.0
    provenance: bool = False

    def __post_init__(self):
        object.__setattr__(self, "config",
                           tuple(sorted(dict(self.config).items())))


def build(cell):
    """The cell's cluster with its observers attached, nothing run yet;
    ``cluster.cell`` is the cell it was built from."""
    cluster = Cluster(site_ids=tuple(range(1, cell.sites + 1)),
                      config=SystemConfig(**dict(cell.config)))
    if cell.observed:
        cluster.enable_observability(
            monitors=cell.monitors, strict=cell.monitors,
            timeline_tick=cell.tick, provenance=cell.provenance)
    cluster.cell = cell
    return cluster


def run(cell):
    """Build the cell's cluster, run what the cell names on it, return
    the cluster (the scaling workload leaves its
    :class:`~repro.workloads.ScalingResult` on ``cluster.result``)."""
    from repro.analysis.report import SCENARIOS
    from repro.analysis.scaling import run_workload

    cluster = build(cell)
    if cell.scenario is None:
        return run_workload(cluster)
    SCENARIOS[cell.scenario](cluster)
    return cluster


def run_grid(fn, cells, workers=1):
    """``[fn(cell) for cell in cells]`` across ``workers`` processes
    (``fn`` is pickled by name), in cell order; sequential inside a
    pool worker, since daemonic processes cannot nest pools."""
    if multiprocessing.current_process().daemon:
        workers = 1
    if workers <= 1 or len(cells) <= 1:
        return [fn(cell) for cell in cells]
    # spawn, not fork: each worker imports the package fresh, so cells
    # cannot observe interpreter state leaked from the parent run.
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(processes=min(workers, len(cells))) as pool:
        return pool.map(fn, cells, chunksize=1)


def grid_main(argv, prog, description, axes, cells, fn, document):
    """The grid CLIs' ``main``: a comma-separated flag per axis (``axes``
    maps it to ``(cast, default, what)``; an empty axis or a value that
    ``cast`` or ``cells`` rejects is a usage error), ``fn`` over
    ``cells(**axes)`` folded by ``document(rows, **axes)`` into
    ``--out``, printed by the renderer of the section that the CLI's
    module names; exit 1 on a monitor violation."""
    name = prog.rsplit(".", 1)[-1]
    parser = argparse.ArgumentParser(prog="python -m " + prog,
                                     description=description)
    parser.add_argument("--workers", type=int, default=0,
                        help="worker processes (default: one per core, "
                             "at most one per cell; 1 = sequential)")
    for flag, (_, default, what) in axes.items():
        parser.add_argument("--" + flag, default=",".join(map(str, default)),
                            help="comma-separated %s axis "
                                 "(default: %%(default)s)" % what)
    parser.add_argument("--out", default="BENCH_%s.json" % name,
                        help="report path (default: %(default)s)")
    args = parser.parse_args(argv)
    try:
        values = {flag: tuple(cast(v) for v in getattr(args, flag).split(",")
                              if v)
                  for flag, (cast, _, _) in axes.items()}
        grid = cells(**values)
    except (KeyError, ValueError) as exc:
        parser.error(exc.args[0])
    if not grid:
        parser.error("empty axis: %s" % ", ".join(
            "--" + flag for flag, axis in values.items() if not axis))
    workers = args.workers or min(os.cpu_count() or 1, len(grid))
    start = time.perf_counter()
    rows = run_grid(fn, grid, workers=workers)
    doc = document(rows, **values)
    validate_report(doc)
    print("== %s: %d cells x %d worker(s) in %.2fs ==" % (
        name, len(grid), workers, time.perf_counter() - start))
    print(SECTIONS[name].render(doc[name]))
    violations = sum(row["monitors_total_violations"] for row in rows)
    print("\nmonitors: %s" % ("clean in every cell" if violations == 0
                              else "%d violation(s)" % violations))
    write_json(args.out, doc)
    print("\nwrote %s" % args.out)
    return 0 if violations == 0 else 1
