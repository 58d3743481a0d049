"""Batching is a schedule, not a semantics: the same seeded programs run
with ``commit_batching`` off and on must end the same way, under both
commit topologies.

Each program runs on 3 sites and 3 files (``/a``, ``/b``, ``/c`` stored
at sites 1, 2 and 3) and has at most 20 transactions, each its own
process at a random site and start time, so that several commit at once
through the same coordinator and the same disks.  A transaction reads
some counters under shared locks and adds to others under exclusive
locks, taking its locks in file-then-offset order (so no deadlock can
form), then commits or aborts as the program says.  A site where it
only reads is a participant with no dirty intentions: with batching on
it votes READ_ONLY.

Crash-free programs share their counters.  Increments commute, so every
transaction ends the same way on both sides and the committed bytes
equal the initial counters plus the committed increments.  With
batching on, the logical log I/O of the off side is all accounted for:
each physical write, less the batch pages, plus the ``*.coalesced``
absorptions, is the off side's count less the prepare forces the
READ_ONLY voters skipped.

Crash programs give every transaction counters of its own and crash
one seeded site mid-stream, rebooting it with recovery.  On both sides
every transaction whose ``EndTrans`` returned is durable, and every
transaction is all or nothing.

The strict protocol monitors stay clean on every run, and no process of
a crashed site resumes (``tests/deadsite.py``).
"""

import functools
import random

import pytest

from repro import Cluster, SystemConfig, drive
from tests.deadsite import dead_site_check

WIDTH = 8
SHARED = 12         # counters every crash-free transaction may touch
FILES = {"/a": 1, "/b": 2, "/c": 3}
PATHS = tuple(sorted(FILES))
SEEDS = tuple(range(10))
CRASH_SEEDS = tuple(range(100, 112))
PROTOCOLS = ("flat", "tree")


def _program(seed, crash):
    """(fault, ops, slots): ops is a list of (site, delay, reads, steps,
    commit) with reads ((path, slot), ...) and steps ((path, slot,
    delta), ...); fault is (site, delay) or None; slots is the number of
    counters per file.  Crash programs give each transaction fresh
    counters past the shared ones, which they only read."""
    rng = random.Random(seed)
    fresh = SHARED
    ops = []
    for _ in range(rng.randint(12, 20)):
        touched = {(rng.choice(PATHS), rng.randrange(SHARED))
                   for _ in range(rng.randint(1, 3))}
        reads = set(rng.sample(sorted(touched), rng.randint(0, len(touched))))
        writes = touched - reads
        if crash:
            writes = set()
            for path in rng.sample(PATHS, rng.randint(1, 2)):
                writes.add((path, fresh))
                fresh += 1
        steps = tuple((path, slot, rng.randint(1, 9))
                      for path, slot in sorted(writes))
        ops.append((rng.choice((1, 2, 3)), round(rng.uniform(0.0, 0.5), 3),
                    tuple(sorted(reads)), steps, rng.random() < 0.85))
    fault = None
    if crash:
        fault = (rng.choice((1, 2, 3)), round(rng.uniform(0.3, 1.5), 3))
    return fault, ops, fresh


def _txn(sys, tids, index, delay, reads, steps, commit):
    yield from sys.sleep(delay)
    yield from sys.begin_trans()
    tids[index] = str(sys.tid)
    fds = {}
    locks = sorted([(path, slot, None) for path, slot in reads] + list(steps),
                   key=lambda op: op[:2])
    for path, slot, delta in locks:
        if path not in fds:
            fds[path] = yield from sys.open(path, write=True)
        fd = fds[path]
        yield from sys.seek(fd, slot * WIDTH)
        yield from sys.lock(fd, WIDTH,
                            mode="shared" if delta is None else "exclusive")
        value = int((yield from sys.read(fd, WIDTH)))
        if delta is not None:
            yield from sys.seek(fd, slot * WIDTH)
            yield from sys.write(fd, b"%0*d" % (WIDTH, value + delta))
    if not commit:
        yield from sys.abort_trans()
        return "aborted"
    yield from sys.end_trans()
    return "committed"


@functools.lru_cache(maxsize=None)
def _run(seed, batching, protocol, crash=False):
    fault, ops, slots = _program(seed, crash)
    cluster = Cluster(site_ids=(1, 2, 3), config=SystemConfig(
        commit_batching=batching, commit_protocol=protocol))
    cluster.enable_observability(monitors=True, strict=True)
    for path, site in sorted(FILES.items()):
        drive(cluster.engine, cluster.create_file(path, site_id=site))
        drive(cluster.engine, cluster.populate(path, b"0" * WIDTH * slots))
    tids = {}
    with dead_site_check(cluster):
        procs = [cluster.spawn(_txn, tids, index, *op[1:], site_id=op[0])
                 for index, op in enumerate(ops)]
        if fault is not None:
            site, when = fault
            cluster.engine.schedule(when, cluster.crash_site, site)
            cluster.engine.schedule(when + 0.5, cluster.restart_site, site)
        cluster.run()
    cluster.obs.finish_monitors()
    committed = {
        path: drive(cluster.engine,
                    cluster.committed_bytes(path, 0, WIDTH * slots))
        for path in PATHS
    }
    stats = {}
    for site in cluster.sites.values():
        for volume in site.volumes.values():
            for key in ("io.write.log", "io.write.log_inode",
                        "io.write.log.coalesced",
                        "io.write.log_inode.coalesced"):
                stats[key] = stats.get(key, 0) + volume.stats.get(key)
    spans = cluster.obs.spans
    counters = cluster.obs.metrics.counters_by_site()
    return {
        "ops": ops,
        "outcomes": tuple((p.exit_status, p.exit_value) for p in procs),
        "counters": {
            (path, slot): int(data[slot * WIDTH:(slot + 1) * WIDTH])
            for path, data in committed.items() for slot in range(slots)
        },
        "votes": sorted(
            (span.attrs["tid"], span.site_id, span.attrs["vote"])
            for span in spans.select("2pc.prepare") if not span.open),
        "tids": [tids.get(index) for index in range(len(ops))],
        "violations": cluster.obs.monitors.total_violations,
        "io": stats,
        "batches": [span.attrs for span in spans.select("groupcommit.batch")],
        "pages": {category: sum(
            1 for span in spans.select("disk.write")
            if span.attrs["category"] == category
            and span.attrs["block"][0] in ("log-batch", "log-batch-inode"))
            for category in ("io.write.log", "io.write.log_inode")},
        "waits": [span.duration for span in spans.select("groupcommit.wait")],
        "counted": sum(c.get("commit.group.batched", 0)
                       for c in counters.values()),
        "phase2_coalesced": sum(c.get("commit.phase2.coalesced", 0)
                                for c in counters.values()),
        "disk_io_time": cluster.config.cost.disk_io_time,
    }


def _expected(ops, outcomes):
    """The counters the committed transactions add up to."""
    total = {}
    for (_site, _delay, _reads, steps, _commit), outcome in zip(ops, outcomes):
        if outcome == ("done", "committed"):
            for path, slot, delta in steps:
                total[path, slot] = total.get((path, slot), 0) + delta
    return total


def _read_only_sites(op):
    """The participants of ``op`` where it writes nothing."""
    _site, _delay, reads, steps, _commit = op
    return ({FILES[path] for path, _slot in reads}
            - {FILES[path] for path, _slot, _delta in steps})


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("seed", SEEDS)
def test_batching_changes_no_outcome_and_no_committed_byte(seed, protocol):
    off, on = _run(seed, False, protocol), _run(seed, True, protocol)
    assert all(status == "done" for status, _ in off["outcomes"])
    assert on["outcomes"] == off["outcomes"]
    for side in (off, on):
        expected = _expected(side["ops"], side["outcomes"])
        assert side["counters"] == {
            key: expected.get(key, 0) for key in side["counters"]}
        assert side["violations"] == 0

    # READ_ONLY voters are exactly the participants with no dirty
    # intentions, and only with batching on.
    assert not [v for v in off["votes"] if v[2] == "ro"]
    voted_ro = {(tid, site) for tid, site, vote in on["votes"]
                if vote == "ro"}
    assert voted_ro == {
        (tid, site) for op, tid, outcome
        in zip(on["ops"], on["tids"], on["outcomes"])
        if outcome == ("done", "committed")
        for site in _read_only_sites(op)}

    # Every member force is counted once, and none returns before the
    # physical write covering it.
    io = on["io"]
    assert on["counted"] == io["io.write.log.coalesced"] == sum(
        batch["members"] for batch in on["batches"])
    assert min(on["waits"]) > on["disk_io_time"] - 1e-9

    # Logical log I/O: the off side's, less the skipped prepare forces
    # (one log page and one log inode each: one volume per site, the
    # unoptimized footnote-9 log).
    skipped = len(voted_ro)
    assert on["pages"]["io.write.log"] == len(on["batches"])
    for category in ("io.write.log", "io.write.log_inode"):
        assert (io[category] - on["pages"][category]
                + io[category + ".coalesced"]
                == off["io"][category] - skipped), category


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("batching", (False, True))
@pytest.mark.parametrize("seed", CRASH_SEEDS)
def test_a_crash_leaves_every_transaction_all_or_nothing(seed, batching,
                                                         protocol):
    run = _run(seed, batching, protocol, crash=True)
    assert run["violations"] == 0
    for op, outcome in zip(run["ops"], run["outcomes"]):
        steps = op[3]
        applied = [run["counters"][path, slot] == delta
                   for path, slot, delta in steps]
        untouched = [run["counters"][path, slot] == 0
                     for path, slot, _delta in steps]
        assert all(applied) or all(untouched), (op, outcome)
        if outcome == ("done", "committed"):
            assert all(applied), (op, outcome)


def test_the_programs_exercise_every_mechanism():
    """Multi-member log batches, coalesced phase-2 messages and
    READ_ONLY votes all occur with batching on, under both topologies;
    the crash programs crash mid-stream, losing some transactions and
    keeping others."""
    for protocol in PROTOCOLS:
        runs = [_run(seed, True, protocol) for seed in SEEDS]
        assert sum(len(run["batches"]) for run in runs) > 0
        assert sum(run["phase2_coalesced"] for run in runs) > 0
        assert sum(vote == "ro" for run in runs
                   for _tid, _site, vote in run["votes"]) > 0
        for batching in (False, True):
            crashed = [_run(seed, batching, protocol, crash=True)
                       for seed in CRASH_SEEDS]
            outcomes = [o for run in crashed for o in run["outcomes"]]
            assert ("done", "committed") in outcomes
            assert [o for o in outcomes if o[0] != "done"]
