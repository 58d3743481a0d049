#!/usr/bin/env python3
"""Engine events per commit, by the code that caused them.

    python3 tools/events_by_origin.py log_local [--seed 1] [--top 15]

Runs one ledger workload's panel (``benchmarks/e2e/bench.py``'s cells,
untimed) with the engine's scheduling primitives counted from outside,
and prints how many entries each origin scheduled per commit.  An
entry's origin is the innermost generator outside ``repro/sim`` of the
process that waits on it or is granted something by it
(``Disk.write_block``, not the syscall it runs under, nor a resource
helper it runs through); an entry nobody waits on -- a spawn's kickoff,
an event's wake-ups, a network delivery -- goes to the innermost frame
outside ``repro/sim`` that asked for it.  The total equals the ledger's
``sim.events``.  Nothing here is timed and nothing under ``src/`` or
``benchmarks/e2e/`` knows about it: it is the price list ROADMAP item 7
cuts from.
"""

import argparse
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))

import bench  # noqa: E402 - needs the path above

_SIM = str(Path("repro") / "sim") + "/"


def _label(code):
    return "%s:%s" % (Path(code.co_filename).parent.name, code.co_qualname)


def install(counts):
    """Count every engine entry under its origin."""
    import repro  # noqa: F401 - every Waitable subclass must exist
    from repro.sim import engine, events
    from repro.sim.process import Process

    waiting = []  # the process whose wait is being subscribed, if any

    def origin(args):
        last = args[-1] if args else None
        if waiting:
            proc = waiting[-1]
        elif isinstance(last, tuple) and last and isinstance(last[0], Process):
            proc = last[0]          # a grant or completion for that process
        else:
            frame = sys._getframe(2)
            while frame.f_back is not None and _SIM in frame.f_code.co_filename:
                frame = frame.f_back
            return _label(frame.f_code)
        gen = innermost = proc._gen
        while getattr(gen, "gi_code", None) is not None:
            if _SIM not in gen.gi_code.co_filename:
                innermost = gen
            gen = gen.gi_yieldfrom
        return _label(innermost.gi_code)

    def counted(name):
        inner = getattr(engine.Engine, name)

        def schedule(self, *args):
            counts[origin(args)] += 1
            return inner(self, *args)
        setattr(engine.Engine, name, schedule)

    def attributed(cls):
        inner = cls._subscribe_process

        def subscribe(self, proc, epoch):
            waiting.append(proc)
            try:
                inner(self, proc, epoch)
            finally:
                waiting.pop()
        cls._subscribe_process = subscribe

    for name in ("_schedule", "_post"):
        counted(name)
    bulk = engine.Engine.schedule_many

    def schedule_many(self, items):
        items = list(items)
        counts[origin(())] += len(items)
        return bulk(self, items)
    engine.Engine.schedule_many = schedule_many

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    for cls in [events.Waitable, *subclasses(events.Waitable)]:
        if "_subscribe_process" in vars(cls):
            attributed(cls)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=list(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--top", type=int, default=15)
    args = parser.parse_args(argv)
    bench._import_repro()
    w = bench.WORKLOADS[args.workload]
    counts, total, commits = Counter(), Counter(), 0
    install(counts)
    for i in range(w.cells):
        _cluster, driver = bench.build_cell(w, bench.cell_seed(args.seed, i))
        counts.clear()  # set-up entries stay out, as in bench.py
        commits += driver.run().committed
        total.update(counts)
    events = sum(total.values())
    print("%s seed %d: %d commits, %d events, %.1f events/commit"
          % (w.name, args.seed, commits, events, events / commits))
    for origin, n in total.most_common(args.top):
        print("  %7.2f  %5.1f %%  %s" % (n / commits, 100.0 * n / events, origin))
    rest = events - sum(n for _o, n in total.most_common(args.top))
    if rest:
        print("  %7.2f  %5.1f %%  (%d other origins)"
              % (rest / commits, 100.0 * rest / events,
                 len(total) - args.top))


if __name__ == "__main__":
    main()
