#!/usr/bin/env python3
"""What one cell's ``driver.run()`` leaves in the heap, by package and
by observer.

    python3 tools/obs_retention.py oltp_hot_obs [--seed 1] [--top 12]
    python3 tools/obs_retention.py oltp_hot_obs --quick \\
        --max-processes-per-client 2 --max-bytes-per-span 282

Builds the first cell of one ledger workload (``benchmarks/e2e/bench.py``'s
``build_cell``), runs it under ``tracemalloc`` and prints the bytes still
allocated afterwards that were not there before -- with the cluster,
driver and result all still referenced, so this is what the run *keeps*,
not what it churns -- grouped by ``src/repro`` package and by allocating
line, next to the number of simulation processes, spans and instants
still alive.  An observed run should keep what it reports (spans,
instants, sketches, monitor state) and nothing else: a finished
process that is still in the heap is a leak, and
``--max-processes-per-client`` turns that into exit status 1.

Then it prices each observer: the span archive, the instants, each
monitor, the provenance hub, the SLO tracker, the timeline and the
metrics are released one at a time, in that order -- the state
dropped, the emptied object left where the handler table points --
and the traced total is measured again after each, so a byte two
observers share is billed to the one released later.  The archive's
bytes over the spans the run recorded is the "bytes per retained span"
line, and ``--max-bytes-per-span`` turns that into exit status 1 (a
per-span attrs dict coming back is the regression it catches;
tests/obs/test_retention.py is the tier-1 law).  Nothing is timed
(``tracemalloc`` makes the run several times slower) and nothing under
``src/`` or ``benchmarks/e2e/`` knows about this file: it is the price
list ROADMAP item 3 cuts from (docs/ENGINE_PERF.md, "What an observed
run keeps").
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


def releases(obs):
    """``(name, release)`` for each observer of ``obs``, in release
    order; ``release()`` drops what that observer holds."""
    recorder = obs.spans

    def archive():
        recorder.spans.clear()
        recorder._by_id = {}

    out = [("span archive", archive),
           ("instants", recorder.instants.clear)]
    parts = list(obs.monitors.monitors) if obs.monitors else []
    parts += [obs.provenance, obs.slo, obs.timeline, obs.metrics]
    for part in parts:
        if part is not None:
            out.append((type(part).__name__, vars(part).clear))
    return out


def itemise(obs):
    """``[(name, bytes)]``: what releasing each observer in turn frees
    (tracemalloc must still be tracing)."""
    items = []
    for name, release in releases(obs):
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        release()
        gc.collect()
        items.append((name, held - tracemalloc.get_traced_memory()[0]))
    return items


def retained(w, seed, quick=False):
    """Run one cell; returns ``(commits, clients, by_package, by_line,
    live, items, spans)`` with sizes in bytes, ``live`` a Counter of
    class names, ``items`` the :func:`itemise` list (empty on a plain
    run) and ``spans`` the number of spans the run recorded."""
    cluster, driver = bench.build_cell(w, bench.cell_seed(seed, 0), quick)
    obs = cluster.obs
    setup_spans = len(obs.spans.spans) if obs else 0
    gc.collect()
    tracemalloc.start()
    before = tracemalloc.take_snapshot()
    result = driver.run()
    gc.collect()
    after = tracemalloc.take_snapshot()
    by_package, by_line = Counter(), Counter()
    for stat in after.compare_to(before, "lineno"):
        frame = stat.traceback[0]
        package, path = _place(frame.filename)
        by_package[package] += stat.size_diff
        by_line["%s:%d" % (path, frame.lineno) if path else package] \
            += stat.size_diff
    from repro.sim.process import Process

    span_mod = sys.modules.get("repro.obs.span")  # absent on a plain run
    kinds = (span_mod.Span, span_mod.Instant) if span_mod else ()
    live = Counter()
    for obj in gc.get_objects():
        kind = type(obj)
        if kind in kinds or (kind is Process
                             and obj._engine is cluster.engine):
            live[kind.__name__] += 1
    items, spans = [], 0
    if obs is not None:
        spans = len(obs.spans.spans) - setup_spans
        items = itemise(obs)
    tracemalloc.stop()
    return (result.committed, driver.clients, by_package, by_line, live,
            items, spans)


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
    parser.add_argument("--max-bytes-per-span", type=float, metavar="N",
                        help="exit 1 when the span archive keeps more "
                        "than N bytes per span the run recorded")
    args = parser.parse_args(argv)
    bench._import_repro()
    w = bench.WORKLOADS[args.workload]
    commits, clients, by_package, by_line, live, items, spans = retained(
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
    per_span = None
    if items:
        print("  by observer (released in this order):")
        for name, size in items:
            print("  %8.2f MB  %5.1f %%  %s"
                  % (size / MB, 100.0 * size / total, name))
        rest = total - sum(size for _, size in items)
        print("  %8.2f MB  %5.1f %%  (everything else)"
              % (rest / MB, 100.0 * rest / total))
        per_span = dict(items)["span archive"] / spans if spans else 0.0
        print("  bytes per retained span: %.1f (%d spans recorded by the "
              "run)" % (per_span, spans))
    status = 0
    limit = args.max_processes_per_client
    if limit is not None and per_client > limit:
        print("FAIL: %.2f processes per client are still alive (limit %g): "
              "finished processes are being retained" % (per_client, limit))
        status = 1
    limit = args.max_bytes_per_span
    if limit is not None and per_span is None:
        print("FAIL: --max-bytes-per-span on %s, which records no spans"
              % w.name)
        status = 1
    elif limit is not None and per_span > limit:
        print("FAIL: %.1f bytes per retained span (limit %g): a closed span "
              "keeps more than its key shape and values" % (per_span, limit))
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
