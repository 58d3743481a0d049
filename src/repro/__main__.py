"""Command-line demo: ``python -m repro [scenario]``.

Scenarios:

* ``commit``   (default) -- a distributed transaction
* ``abort``    -- a deadlock between two transactions, victim aborted
* ``recovery`` -- coordinator crash after the commit point, recovered

Every run records causal spans (``cluster.enable_observability()``)
and prints the first 40 in start order -- time, site, name, duration.
Flags: ``--report`` prints the cluster inspection tables afterwards,
``--quiet`` suppresses the span listing, ``--trace-out`` writes every
span as a Chrome trace.
"""

from __future__ import annotations

import argparse
import sys

from repro import Cluster, drive
from repro.locus.inspect import cluster_report


def scenario_commit(cluster):
    drive(cluster.engine, cluster.create_file("/demo/data", site_id=1))
    drive(cluster.engine, cluster.populate("/demo/data", b"." * 64))

    def prog(sysc):
        yield from sysc.begin_trans()
        fd = yield from sysc.open("/demo/data", write=True)
        yield from sysc.lock(fd, 32)
        yield from sysc.write(fd, b"a distributed transaction paper!"[:32])
        yield from sysc.end_trans()
        return "committed from site %d at t=%.3fs" % (sysc.site_id, sysc.now)

    proc = cluster.spawn(prog, site_id=2, name="demo")
    cluster.run()
    print("outcome:", proc.exit_value if proc.exit_status == "done" else proc.exit_value)
    data = drive(cluster.engine, cluster.committed_bytes("/demo/data", 0, 32))
    print("durable:", data.decode())


def scenario_abort(cluster):
    for path in ("/demo/x", "/demo/y"):
        drive(cluster.engine, cluster.create_file(path, site_id=1))
        drive(cluster.engine, cluster.populate(path, b"-" * 32))

    def txn(sysc, first, second, delay):
        yield from sysc.sleep(delay)
        yield from sysc.begin_trans()
        for path in (first, second):
            fd = yield from sysc.open(path, write=True)
            yield from sysc.lock(fd, 8)
            yield from sysc.sleep(0.3)
        yield from sysc.end_trans()
        return "committed"

    older = cluster.spawn(txn, "/demo/x", "/demo/y", 0.0, site_id=1, name="older")
    younger = cluster.spawn(txn, "/demo/y", "/demo/x", 0.05, site_id=2, name="younger")
    cluster.run()
    print("older:  ", older.exit_status, older.exit_value)
    print("younger:", younger.exit_status, younger.exit_value)


def scenario_recovery(cluster):
    drive(cluster.engine, cluster.create_file("/demo/data", site_id=1))
    drive(cluster.engine, cluster.populate("/demo/data", b"-" * 32))

    def prog(sysc):
        yield from sysc.begin_trans()
        fd = yield from sysc.open("/demo/data", write=True)
        yield from sysc.write(fd, b"survives the coordinator crash!")
        yield from sysc.end_trans()
        cluster.crash_site(sysc.site_id)  # die before phase two
        yield from sysc.sleep(1)

    cluster.spawn(prog, site_id=2, name="doomed-coordinator")
    cluster.run()
    txn = cluster.txn_registry.all()[0]
    print("after crash: transaction state =", txn.state)
    cluster.restart_site(2)
    cluster.run()
    print("after reboot+recovery: state =", txn.state)
    data = drive(cluster.engine, cluster.committed_bytes("/demo/data", 0, 31))
    print("durable:", data.decode())


SCENARIOS = {
    "commit": scenario_commit,
    "abort": scenario_abort,
    "recovery": scenario_recovery,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Demos of the SOSP 1985 Locus transaction reproduction.",
    )
    parser.add_argument("scenario", nargs="?", default="commit",
                        choices=sorted(SCENARIOS))
    parser.add_argument("--report", action="store_true",
                        help="print the cluster inspection tables")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the span listing")
    parser.add_argument("--trace-out", metavar="FILE.json", default=None,
                        help="write a Chrome trace of causal spans "
                             "(load at https://ui.perfetto.dev)")
    args = parser.parse_args(argv)

    cluster = Cluster(site_ids=(1, 2, 3))
    spans = cluster.enable_observability().spans
    print("== scenario: %s ==" % args.scenario)
    SCENARIOS[args.scenario](cluster)
    if not args.quiet:
        print("\nevent trace:")
        for span in spans.spans[:40]:
            took = ("%9.3f ms" % (span.duration * 1e3)
                    if span.end is not None else "     open")
            print("  %10.4f  site=%-3s %-28s %s"
                  % (span.start, span.site_id, span.name, took))
        if len(spans.spans) > 40:
            print("  ... (%d more spans)" % (len(spans.spans) - 40))
    if args.report:
        print()
        print(cluster_report(cluster))
    if args.trace_out:
        from repro.obs import to_chrome_trace, write_json

        write_json(args.trace_out, to_chrome_trace(spans))
        print("\nwrote %s (load at https://ui.perfetto.dev)" % args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
