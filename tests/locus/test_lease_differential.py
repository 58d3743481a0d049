"""Leases are a cache: the same seeded programs run with ``lock_cache``
off and on must end the same way.

Each program runs on 3 sites and 2 files (``/a`` stored at site 1, ``/b``
at site 2) and has at most 20 operations, each its own process at a
random site and start time:

* a transaction doing read-modify-write increments of fixed-width
  decimal counters, locking in file-then-offset order (so no deadlock
  can form), then committing or aborting as the program says;
* an unlocked Unix read of a counter, which may be refused while a
  transaction holds it (that answer depends on timing and is not
  compared) but which recalls any lease over the range.

Increments commute, so the oracle does not depend on the schedule:
every transaction ends the same way on both sides, the committed bytes
are equal (and equal to the initial counters plus the committed
increments), and the strict protocol monitors stay clean on both
sides.  A short lease makes the cache side exercise expiry and the
commit-path refresh piggyback as well as recalls.
"""

import functools
import random

import pytest

from repro import Cluster, SystemConfig, drive
from repro.locus import AccessDenied

WIDTH = 8
SLOTS = 4
FILES = {"/a": 1, "/b": 2}
SEEDS = tuple(range(16))
LEASE = 0.3


def _program(seed):
    """A list of (site, delay, op) where op is ("txn", steps, commit,
    hold) with steps ((path, slot, delta), ...) in lock order, or
    ("read", path, slot)."""
    rng = random.Random(seed)
    ops = []
    for _ in range(rng.randint(12, 20)):
        site = rng.choice((1, 2, 3))
        delay = round(rng.uniform(0.0, 3.0), 3)
        if rng.random() < 0.25:
            ops.append((site, delay, ("read", rng.choice(sorted(FILES)),
                                      rng.randrange(SLOTS))))
            continue
        picks = {(rng.choice(sorted(FILES)), rng.randrange(SLOTS))
                 for _ in range(rng.randint(1, 3))}
        steps = tuple((path, slot, rng.randint(1, 9))
                      for path, slot in sorted(picks))
        ops.append((site, delay, ("txn", steps, rng.random() < 0.8,
                                  round(rng.uniform(0.0, 0.2), 3))))
    return ops


def _txn(sys, delay, steps, commit, hold):
    yield from sys.sleep(delay)
    yield from sys.begin_trans()
    fds = {}
    for path, slot, delta in steps:
        if path not in fds:
            fds[path] = yield from sys.open(path, write=True)
        fd = fds[path]
        yield from sys.seek(fd, slot * WIDTH)
        yield from sys.lock(fd, WIDTH)
        value = int((yield from sys.read(fd, WIDTH)))
        yield from sys.seek(fd, slot * WIDTH)
        yield from sys.write(fd, b"%0*d" % (WIDTH, value + delta))
        if hold:
            yield from sys.sleep(hold)
    if commit:
        yield from sys.end_trans()
        return "committed"
    yield from sys.abort_trans()
    return "aborted"


def _unix_read(sys, delay, path, slot):
    yield from sys.sleep(delay)
    fd = yield from sys.open(path)
    yield from sys.seek(fd, slot * WIDTH)
    try:
        yield from sys.read(fd, WIDTH)
    except AccessDenied:
        pass
    yield from sys.close(fd)


@functools.lru_cache(maxsize=None)
def _run(seed, lock_cache):
    config = SystemConfig(lock_cache=lock_cache, lock_cache_lease=LEASE)
    cluster = Cluster(site_ids=(1, 2, 3), config=config)
    cluster.enable_observability(monitors=True, strict=True)
    for path, site in sorted(FILES.items()):
        drive(cluster.engine, cluster.create_file(path, site_id=site))
        drive(cluster.engine, cluster.populate(path, b"0" * WIDTH * SLOTS))
    txns = []
    for site, delay, op in _program(seed):
        if op[0] == "txn":
            txns.append((op, cluster.spawn(_txn, delay, *op[1:],
                                           site_id=site)))
        else:
            cluster.spawn(_unix_read, delay, *op[1:], site_id=site)
    cluster.run()
    cluster.obs.finish_monitors()
    outcomes = tuple((p.exit_status, p.exit_value) for _op, p in txns)
    expected = {}
    for op, p in txns:
        if p.exit_value == "committed":
            for path, slot, delta in op[1]:
                expected[path, slot] = expected.get((path, slot), 0) + delta
    committed = {
        path: drive(cluster.engine,
                    cluster.committed_bytes(path, 0, WIDTH * SLOTS))
        for path in sorted(FILES)
    }
    counters = {
        (path, slot): int(data[slot * WIDTH:(slot + 1) * WIDTH])
        for path, data in committed.items() for slot in range(SLOTS)
    }
    stats = {}
    for site in cluster.sites.values():
        for key, value in (site.leases.cache.stats.items()
                           if lock_cache else ()):
            stats[key] = stats.get(key, 0) + value
    return {
        "outcomes": outcomes,
        "committed": committed,
        "counters_ok": all(counters[key] == expected.get(key, 0)
                           for key in counters),
        "violations": cluster.obs.monitors.total_violations,
        "stats": stats,
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_lock_cache_changes_no_outcome_and_no_committed_byte(seed):
    off, on = _run(seed, False), _run(seed, True)
    assert all(status == "done" for status, _ in off["outcomes"])
    assert on["outcomes"] == off["outcomes"]
    assert off["counters_ok"] and on["counters_ok"]
    assert on["committed"] == off["committed"]
    assert off["violations"] == on["violations"] == 0


def test_the_programs_exercise_hits_recalls_expiry_and_refresh():
    total = {}
    for seed in SEEDS:
        for key, value in _run(seed, True)["stats"].items():
            total[key] = total.get(key, 0) + value
    for key in ("hits", "recalls", "expired", "refreshes"):
        assert total[key] > 0, (key, total)
