#!/usr/bin/env python3
"""What one cell's ``driver.run()`` leaves in the heap, by package.

    python3 tools/obs_retention.py oltp_hot_obs [--seed 1] [--top 12]
    python3 tools/obs_retention.py oltp_hot_obs --quick --max-processes-per-client 2

Builds the first cell of one ledger workload (``benchmarks/e2e/bench.py``'s
``build_cell``), runs it under ``tracemalloc`` and prints the bytes still
allocated afterwards that were not there before -- with the cluster,
driver and result all still referenced, so this is what the run *keeps*,
not what it churns -- grouped by ``src/repro`` package and by allocating
line, next to the number of simulation processes, spans and instants
still alive.  An observed run should keep what it reports (spans,
instants, sketches, monitor state) and nothing else: a finished
process that is still in the heap is a leak, and
``--max-processes-per-client`` turns that into exit status 1.  Nothing
is timed (``tracemalloc`` makes the run several times slower) and
nothing under ``src/`` or ``benchmarks/e2e/`` knows about this file: it
is the price list ROADMAP item 3 cuts from (docs/ENGINE_PERF.md, "What
an observed run keeps").
"""

import argparse
import gc
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))

import bench  # noqa: E402 - needs the path above

MB = 1024.0 * 1024.0


def _place(filename):
    """``(package, file)`` for a path under ``src/repro``; everything
    else is one bucket."""
    _, found, rest = filename.rpartition("/src/repro/")
    if not found:
        return "(outside repro)", None
    return (rest.split("/")[0] if "/" in rest else "(top)"), rest


def retained(w, seed, quick=False):
    """Run one cell; returns ``(commits, clients, by_package, by_line,
    live)`` with sizes in bytes and ``live`` a Counter of class names."""
    cluster, driver = bench.build_cell(w, bench.cell_seed(seed, 0), quick)
    gc.collect()
    tracemalloc.start()
    before = tracemalloc.take_snapshot()
    result = driver.run()
    gc.collect()
    after = tracemalloc.take_snapshot()
    tracemalloc.stop()
    by_package, by_line = Counter(), Counter()
    for stat in after.compare_to(before, "lineno"):
        frame = stat.traceback[0]
        package, path = _place(frame.filename)
        by_package[package] += stat.size_diff
        by_line["%s:%d" % (path, frame.lineno) if path else package] \
            += stat.size_diff
    from repro.sim.process import Process

    span_mod = sys.modules.get("repro.obs.span")  # absent on a plain run
    spans = (span_mod.Span, span_mod.Instant) if span_mod else ()
    live = Counter()
    for obj in gc.get_objects():
        kind = type(obj)
        if kind in spans or (kind is Process
                             and obj._engine is cluster.engine):
            live[kind.__name__] += 1
    return result.committed, driver.clients, by_package, by_line, live


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=list(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--top", type=int, default=12)
    parser.add_argument("--quick", action="store_true",
                        help="the benchmark's quick cell (an eighth of "
                             "the clients)")
    parser.add_argument("--max-processes-per-client", type=float,
                        metavar="N", help="exit 1 when more than N "
                        "simulation processes per client are still alive")
    args = parser.parse_args(argv)
    bench._import_repro()
    w = bench.WORKLOADS[args.workload]
    commits, clients, by_package, by_line, live = retained(
        w, args.seed, args.quick)
    total = sum(by_package.values())
    print("%s seed %d, cell 0: %d commits, %.2f MB retained by "
          "driver.run(), %.1f KB per commit"
          % (w.name, args.seed, commits, total / MB,
             total / 1024.0 / commits))
    per_client = live["Process"] / clients
    print("  live: %d Process (%.2f per client, %d clients), %d Span, "
          "%d Instant" % (live["Process"], per_client, clients,
                          live["Span"], live["Instant"]))
    print("  by package:")
    for package, size in by_package.most_common():
        print("  %8.2f MB  %5.1f %%  %s"
              % (size / MB, 100.0 * size / total, package))
    print("  top lines:")
    for line, size in by_line.most_common(args.top):
        print("  %8.2f MB  %5.1f %%  %s"
              % (size / MB, 100.0 * size / total, line))
    limit = args.max_processes_per_client
    if limit is not None and per_client > limit:
        print("FAIL: %.2f processes per client are still alive (limit %g): "
              "finished processes are being retained" % (per_client, limit))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
