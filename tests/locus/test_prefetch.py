"""Lock-grant page prefetching (section 5.2 optimization)."""

import pytest

from repro import Cluster, SystemConfig, drive
from repro.fs.prefetch import PrefetchCache


def make_cluster(prefetch):
    config = SystemConfig(prefetch_on_lock=prefetch)
    c = Cluster(site_ids=(1, 2), config=config)
    drive(c.engine, c.create_file("/f", site_id=1))
    drive(c.engine, c.populate("/f", b"0123456789" * 20))
    return c


def run_prog(cluster, prog, site_id=2):
    proc = cluster.spawn(prog, site_id=site_id)
    cluster.run()
    if proc.failed:
        raise proc.exit_value
    return proc


def locked_read_messages(prefetch):
    cluster = make_cluster(prefetch)
    out = {}

    def prog(sys):
        yield from sys.begin_trans()
        fd = yield from sys.open("/f", write=True)
        yield from sys.lock(fd, 50)
        before = cluster.network.stats.get("net.messages")
        data = yield from sys.read(fd, 50)
        out["messages"] = cluster.network.stats.get("net.messages") - before
        out["data"] = data
        yield from sys.end_trans()

    run_prog(cluster, prog)
    return out


def test_prefetched_read_needs_no_messages():
    out = locked_read_messages(prefetch=True)
    assert out["messages"] == 0
    assert out["data"] == (b"0123456789" * 5)


def test_without_prefetch_read_costs_a_round_trip():
    out = locked_read_messages(prefetch=False)
    assert out["messages"] == 2  # request + reply
    assert out["data"] == (b"0123456789" * 5)


def test_prefetched_copy_reflects_own_writes():
    cluster = make_cluster(True)
    out = {}

    def prog(sys):
        yield from sys.begin_trans()
        fd = yield from sys.open("/f", write=True)
        yield from sys.lock(fd, 50)
        yield from sys.write(fd, b"WRITTEN!")
        yield from sys.seek(fd, 0)
        out["data"] = yield from sys.read(fd, 10)
        yield from sys.end_trans()

    run_prog(cluster, prog)
    assert out["data"] == b"WRITTEN!89"


def test_read_outside_locked_range_goes_remote():
    cluster = make_cluster(True)
    out = {}

    def prog(sys):
        yield from sys.begin_trans()
        fd = yield from sys.open("/f", write=True)
        yield from sys.lock(fd, 50)
        yield from sys.seek(fd, 100)  # beyond the lock: cannot use cache
        before = cluster.network.stats.get("net.messages")
        yield from sys.read(fd, 10)
        out["messages"] = cluster.network.stats.get("net.messages") - before
        yield from sys.end_trans()

    run_prog(cluster, prog)
    # The implicit shared lock for the uncovered range costs one round
    # trip (which itself prefetches), so the read is served locally.
    assert out["messages"] == 2


def test_unlock_invalidates_prefetch():
    cluster = make_cluster(True)
    out = {}

    def prog(sys):
        fd = yield from sys.open("/f", write=True)
        yield from sys.lock(fd, 50)
        yield from sys.unlock(fd, 50)
        site = cluster.site(sys.site_id)
        out["cached"] = len(site.prefetch_cache)

    run_prog(cluster, prog)
    assert out["cached"] == 0


def test_local_locks_do_not_prefetch():
    cluster = make_cluster(True)

    def prog(sys):
        fd = yield from sys.open("/f", write=True)
        yield from sys.lock(fd, 50)

    run_prog(cluster, prog, site_id=1)  # at the storage site
    assert len(cluster.site(1).prefetch_cache) == 0


# ----------------------------------------------------------------------
# PrefetchCache unit behaviour
# ----------------------------------------------------------------------

F = (1, 2)
H = ("txn", 9)


def test_cache_store_read_contained():
    c = PrefetchCache()
    c.store(F, H, 100, b"abcdefghij")
    assert c.read(F, H, 102, 105) == b"cde"
    assert c.read(F, H, 95, 105) is None       # not contained
    assert c.read(F, ("txn", 8), 102, 105) is None  # other holder


def test_cache_patch():
    c = PrefetchCache()
    c.store(F, H, 0, b"..........")
    c.patch(F, H, 3, b"XYZ")
    assert c.read(F, H, 0, 10) == b"...XYZ...."
    c.patch(F, H, 8, b"QQQQ")  # partial overlap off the end
    assert c.read(F, H, 8, 10) == b"QQ"


def test_cache_drop_range_and_holder():
    c = PrefetchCache()
    c.store(F, H, 0, b"aaaa")
    c.store(F, H, 100, b"bbbb")
    c.drop_range(F, H, 0, 2)
    assert c.read(F, H, 0, 4) is None
    assert c.read(F, H, 100, 104) == b"bbbb"
    c.drop_holder(H)
    assert c.read(F, H, 100, 104) is None


def test_cache_store_supersedes_overlap():
    c = PrefetchCache()
    c.store(F, H, 0, b"old-old-old-")
    c.store(F, H, 4, b"NEW!")
    assert c.read(F, H, 4, 8) == b"NEW!"
    assert c.read(F, H, 0, 12) is None  # old span was dropped


def test_cache_emptied_holder_leaves_at_once():
    c = PrefetchCache()
    c.store(F, H, 0, b"aaaa")
    c.store((9, 9), H, 0, b"bbbb")
    c.drop_range(F, H, 0, 4)
    assert len(c) == 1 and list(c._entries[H]) == [(9, 9)]
    c.drop_range((9, 9), H, 2, 3)
    assert not c._entries
