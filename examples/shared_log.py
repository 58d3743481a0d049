#!/usr/bin/env python
"""A shared append-only log, written from every site (section 3.2).

Without atomic lock-and-extend, remote processes appending to a busy
log can livelock: between finding end-of-file and locking it, someone
else extends the file (footnote 2 of the paper).  Locus's append mode
interprets lock requests relative to EOF *at the storage site*, so each
writer atomically reserves its own fresh range.

Ten writers across three sites each append five entries; every entry
lands intact, in a gap-free sequence.  The run finishes with the
syscall spans of one writer and the cluster inspection report.

Run:  python examples/shared_log.py
"""

from repro import Cluster, drive
from repro.locus.inspect import cluster_report

ENTRY = 64
WRITERS = 10
ENTRIES_EACH = 5


def log_writer(sysc, writer_id):
    yield from sysc.begin_trans()
    fd = yield from sysc.open("/var/shared.log", write=True, append=True)
    written = []
    for n in range(ENTRIES_EACH):
        start, end = yield from sysc.lock(fd, ENTRY)   # EOF-relative
        body = (u"writer=%02d entry=%d site=%d" % (writer_id, n, sysc.site_id))
        yield from sysc.write(fd, body.encode().ljust(ENTRY))
        written.append(start)
    yield from sysc.end_trans()
    return written


def main():
    cluster = Cluster(site_ids=(1, 2, 3))
    drive(cluster.engine, cluster.create_file("/var/shared.log", site_id=1))
    spans = cluster.enable_observability().spans

    writers = [
        cluster.spawn(log_writer, w, site_id=1 + w % 3, name="writer%d" % w)
        for w in range(WRITERS)
    ]
    cluster.run()
    assert all(w.exit_status == "done" for w in writers), [
        w.exit_value for w in writers if w.failed
    ]

    total = WRITERS * ENTRIES_EACH
    data = drive(
        cluster.engine,
        cluster.committed_bytes("/var/shared.log", 0, total * ENTRY),
    )
    entries = [
        data[i * ENTRY:(i + 1) * ENTRY].rstrip().decode()
        for i in range(total)
    ]
    assert all(e.startswith("writer=") for e in entries), "torn entry found"
    reserved = sorted(start for w in writers for start in w.exit_value)
    assert reserved == [i * ENTRY for i in range(total)], "gap or overlap"
    print("%d entries from %d writers, gap-free and untorn. Last three:"
          % (total, WRITERS))
    for e in entries[-3:]:
        print("   ", e)

    print("\nfirst writer's syscall spans:")
    mine = [s for s in spans.spans if s.attrs.get("pid") == writers[0].pid]
    for span in mine[:8]:
        print("    %10.4f  site=%s %-20s %9.3f ms" % (
            span.start, span.site_id, span.name, span.duration * 1e3))

    print("\n" + cluster_report(cluster))


if __name__ == "__main__":
    main()
