"""Lease-based lock caching through the syscall interface: local hits,
invalidation callbacks, and the failure matrix of docs/LOCK_CACHE.md."""

import pytest

from repro import Cluster, SystemConfig, drive
from repro.locus import AccessDenied
from repro.net import MessageKinds


def build(nsites=3, **overrides):
    config = SystemConfig(**dict({"lock_cache": True}, **overrides))
    c = Cluster(site_ids=tuple(range(1, nsites + 1)), config=config)
    drive(c.engine, c.create_file("/f", site_id=1))
    drive(c.engine, c.populate("/f", b"." * 20000))
    return c


def txn_lock_cycles(sys, path, rounds, offset=0, hold=0.0):
    """``rounds`` sequential transactions, each one lock/write/commit."""
    for _ in range(rounds):
        yield from sys.begin_trans()
        fd = yield from sys.open(path, write=True)
        yield from sys.seek(fd, offset)
        yield from sys.lock(fd, 50)
        yield from sys.write(fd, b"z" * 50)
        if hold:
            yield from sys.sleep(hold)
        yield from sys.end_trans()


# ----------------------------------------------------------------------
# the fast path
# ----------------------------------------------------------------------

def test_cached_relock_is_local_and_saves_messages():
    cluster = build(nsites=2)
    site2 = cluster.site(2)
    times = []

    def prog(sys):
        yield from sys.begin_trans()
        fd = yield from sys.open("/f", write=True)
        t0 = sys.now
        yield from sys.lock(fd, 50)       # remote: earns the lease
        times.append(("first", sys.now - t0))
        yield from sys.unlock(fd, 50)
        msgs = cluster.network.stats.get("net.messages")
        t0 = sys.now
        yield from sys.lock(fd, 50)       # leased: served locally
        times.append(("cached", sys.now - t0))
        times.append(("msgs", cluster.network.stats.get("net.messages") - msgs))
        yield from sys.end_trans()

    p = cluster.spawn(prog, site_id=2)
    cluster.run()
    assert p.exit_status == "done", p.exit_value
    by_name = dict(times)
    assert by_name["first"] == pytest.approx(0.018, abs=0.002)   # ~18 ms remote
    assert by_name["cached"] == pytest.approx(0.0015, abs=0.001) # ~local cost
    assert by_name["msgs"] == 0                                  # zero messages
    assert site2.leases.cache.stats["hits"] >= 2   # unlock + re-lock
    assert site2.leases.cache.stats["msgs_saved"] >= 4


def test_commit_piggyback_refreshes_lease():
    cluster = build(nsites=2, lock_cache_lease=1.0)
    site2 = cluster.site(2)

    def prog(sys):
        # 6 rounds x ~0.3 s spans several 1 s lease windows: without the
        # prepare-piggybacked refresh the later rounds would all miss.
        yield from txn_lock_cycles(sys, "/f", 6, hold=0.3)

    p = cluster.spawn(prog, site_id=2)
    cluster.run()
    assert p.exit_status == "done", p.exit_value
    assert site2.leases.cache.stats["refreshes"] >= 4
    assert site2.leases.cache.stats["hits"] >= 4
    assert site2.leases.cache.stats["misses"] == 1  # only the very first lock


# ----------------------------------------------------------------------
# invalidation callbacks
# ----------------------------------------------------------------------

def test_conflicting_writer_blocked_until_recall_completes():
    cluster = build(nsites=3)
    order = []

    def leaseholder(sys):
        yield from sys.begin_trans()
        fd = yield from sys.open("/f", write=True)
        yield from sys.lock(fd, 50)
        order.append(("holder-locked", sys.now))
        yield from sys.sleep(1.0)         # hold the lock across the recall
        yield from sys.write(fd, b"h" * 50)
        yield from sys.end_trans()
        order.append(("holder-committed", sys.now))

    def contender(sys):
        yield from sys.sleep(0.2)
        yield from sys.begin_trans()
        fd = yield from sys.open("/f", write=True)
        yield from sys.lock(fd, 50)       # conflicts with the leased lock
        order.append(("contender-locked", sys.now))
        yield from sys.end_trans()

    p1 = cluster.spawn(leaseholder, site_id=2)
    p2 = cluster.spawn(contender, site_id=3)
    cluster.run()
    assert p1.exit_status == "done", p1.exit_value
    assert p2.exit_status == "done", p2.exit_value
    events = [name for name, _t in order]
    # The contender's grant waits for the recall AND the surrendered
    # (retained, rule 1) lock, i.e. until the leaseholder commits.
    assert events == ["holder-locked", "holder-committed", "contender-locked"]
    assert cluster.site(2).leases.cache.stats["recalls"] == 1
    assert cluster.site(2).leases.cache.storage_of(
        cluster.namespace.lookup("/f").primary.file_id) is None


def test_recall_surrenders_lock_that_denies_unlocked_write():
    cluster = build(nsites=2)
    failures = []

    def leaseholder(sys):
        yield from sys.begin_trans()
        fd = yield from sys.open("/f", write=True)
        yield from sys.lock(fd, 50)
        yield from sys.sleep(1.0)
        yield from sys.end_trans()

    def unix_writer(sys):
        yield from sys.sleep(0.2)
        fd = yield from sys.open("/f", write=True)
        try:
            yield from sys.write(fd, b"u" * 10)
        except AccessDenied as exc:
            failures.append(exc)

    cluster.spawn(leaseholder, site_id=2)
    cluster.spawn(unix_writer, site_id=1)
    cluster.run()
    # The storage site had no record of the lease-local lock until the
    # write recalled the lease; the surrendered lock then denies it.
    assert len(failures) == 1


def test_dropped_recall_callback_is_retried():
    cluster = build(nsites=3)
    dropped = []

    def loss(message):
        if message.kind == MessageKinds.LEASE_RECALL and not dropped:
            dropped.append(message)
            return True
        return False

    cluster.network.loss_filter = loss
    order = []

    def leaseholder(sys):
        yield from txn_lock_cycles(sys, "/f", 1)
        order.append(("holder-done", sys.now))

    def contender(sys):
        yield from sys.sleep(0.5)
        yield from sys.begin_trans()
        fd = yield from sys.open("/f", write=True)
        yield from sys.lock(fd, 50)
        order.append(("contender-locked", sys.now))
        yield from sys.end_trans()

    cluster.spawn(leaseholder, site_id=2)
    p2 = cluster.spawn(contender, site_id=3)
    cluster.run()
    assert p2.exit_status == "done", p2.exit_value
    assert len(dropped) == 1
    granted_at = dict(order)["contender-locked"]
    # One rpc_timeout window (2 s) for the lost callback, then the
    # deterministic resend completes the recall: well before the 5 s
    # lease expiry a retry-less recall would have to wait out.
    assert 2.5 <= granted_at < 4.0


def test_recall_without_retries_waits_out_the_lease():
    cluster = build(nsites=3, rpc_idempotent_retries=0, lock_cache_lease=4.0)
    cluster.network.loss_filter = (
        lambda m: m.kind == MessageKinds.LEASE_RECALL
    )
    order = []

    def leaseholder(sys):
        yield from txn_lock_cycles(sys, "/f", 1)

    def contender(sys):
        yield from sys.sleep(0.5)
        yield from sys.begin_trans()
        fd = yield from sys.open("/f", write=True)
        yield from sys.lock(fd, 50)
        order.append(("contender-locked", sys.now))
        yield from sys.end_trans()

    cluster.spawn(leaseholder, site_id=2)
    p2 = cluster.spawn(contender, site_id=3)
    cluster.run()
    assert p2.exit_status == "done", p2.exit_value
    # Every callback is lost: the storage site can only override the
    # silent leaseholder once the lease has expired.
    assert dict(order)["contender-locked"] >= 4.0


# ----------------------------------------------------------------------
# partitions and crashes
# ----------------------------------------------------------------------

def test_partition_grant_waits_for_lease_expiry():
    cluster = build(nsites=2, lock_cache_lease=3.0)
    site2 = cluster.site(2)
    order = []

    def leaseholder(sys):
        yield from txn_lock_cycles(sys, "/f", 1)
        order.append(("lease-earned", sys.now))

    cluster.spawn(leaseholder, site_id=2)
    cluster.run()
    file_id = cluster.namespace.lookup("/f").primary.file_id
    assert site2.leases.cache.storage_of(file_id) == 1
    expiry = cluster.site(1).leases.registry.lease_of(file_id, 2).expiry

    cluster.partition([1], [2])

    def local_writer(sys):
        yield from sys.begin_trans()
        fd = yield from sys.open("/f", write=True)
        yield from sys.lock(fd, 50)
        order.append(("storage-granted", sys.now))
        yield from sys.end_trans()

    p = cluster.spawn(local_writer, site_id=1)
    cluster.run()
    assert p.exit_status == "done", p.exit_value
    # Partition detection dropped the using site's cache entry...
    assert site2.leases.cache.storage_of(file_id) is None
    # ...but the storage site must wait out the expiry before overriding
    # the unreachable leaseholder (bounded-staleness safety argument).
    assert dict(order)["storage-granted"] >= expiry


def test_crashed_leaseholder_releases_immediately():
    cluster = build(nsites=2, lock_cache_lease=60.0)
    order = []

    def leaseholder(sys):
        yield from txn_lock_cycles(sys, "/f", 1)

    cluster.spawn(leaseholder, site_id=2)
    cluster.run()
    file_id = cluster.namespace.lookup("/f").primary.file_id
    assert cluster.site(1).leases.registry.lease_of(file_id, 2) is not None
    cluster.crash_site(2)

    def local_writer(sys):
        yield from sys.begin_trans()
        fd = yield from sys.open("/f", write=True)
        yield from sys.lock(fd, 50)
        order.append(("granted", sys.now))
        yield from sys.end_trans()

    crash_time = cluster.engine.now
    p = cluster.spawn(local_writer, site_id=1)
    cluster.run()
    assert p.exit_status == "done", p.exit_value
    # Crash detection dropped the lease outright...
    assert cluster.site(1).leases.registry.lease_of(file_id, 2) is None
    # ...so there is no 60 s lease to wait out.
    assert dict(order)["granted"] < crash_time + 1.0


def test_stale_recall_of_a_crashed_leaseholder_spares_its_next_lease():
    """A recall lost on its way to a leaseholder that then crashes and
    reboots must not, when its RPC finally times out, drop the *fresh*
    lease the rebooted site has earned since: the storage site would
    then grant the range while the leaseholder still serves it
    locally."""
    cluster = build(nsites=2, lock_cache_lease=60.0, rpc_idempotent_retries=0)
    lost = []

    def lose_first_recall(message):
        if message.kind == MessageKinds.LEASE_RECALL and not lost:
            lost.append(message)
            return True
        return False

    cluster.network.loss_filter = lose_first_recall
    held = {}

    def locker(sys, name, delay, hold=0.0):
        yield from sys.sleep(delay)
        yield from sys.begin_trans()
        fd = yield from sys.open("/f", write=True)
        yield from sys.lock(fd, 50)
        locked = sys.now
        yield from sys.sleep(hold)
        yield from sys.end_trans()
        held[name] = (locked, sys.now)

    def spawn(name, site_id, delay, hold=0.0):
        cluster.spawn(locker, name, delay, hold, site_id=site_id)

    spawn("first-lease", 2, 0.0)
    spawn("recaller", 1, 1.0)                 # its recall to site 2 is lost
    cluster.engine.schedule(1.3, cluster.crash_site, 2)
    cluster.engine.schedule(1.5, cluster.restart_site, 2)
    cluster.engine.schedule(2.0, spawn, "fresh-lease", 2, 0.0)
    # Both run after the lost recall's RPC has timed out (~3.8).
    cluster.engine.schedule(5.0, spawn, "storage-side", 1, 0.0, 0.25)
    cluster.engine.schedule(5.0, spawn, "lease-side", 2, 0.01, 0.25)
    cluster.run()
    assert len(lost) == 1
    assert sorted(held) == ["first-lease", "fresh-lease", "lease-side",
                            "recaller", "storage-side"]
    (a_lo, a_hi), (b_lo, b_hi) = held["storage-side"], held["lease-side"]
    assert a_hi <= b_lo or b_hi <= a_lo, held   # one exclusive holder at a time


# ----------------------------------------------------------------------
# deadlock across lease-local waits
# ----------------------------------------------------------------------

def test_lease_local_deadlock_is_detected():
    cluster = build(nsites=2)
    drive(cluster.engine, cluster.create_file("/g", site_id=1))
    drive(cluster.engine, cluster.populate("/g", b"." * 20000))
    done = []

    def crosser(sys, first, second, delay):
        yield from sys.sleep(delay)
        yield from sys.begin_trans()
        fa = yield from sys.open(first, write=True)
        yield from sys.lock(fa, 50)
        yield from sys.sleep(0.2)
        fb = yield from sys.open(second, write=True)
        yield from sys.lock(fb, 50)   # lease-local wait: cycle completes
        yield from sys.end_trans()
        done.append(sys.now)

    p1 = cluster.spawn(crosser, "/f", "/g", 0.0, site_id=2)
    p2 = cluster.spawn(crosser, "/g", "/f", 0.05, site_id=2)
    cluster.run()
    # The detector saw the lease-local edges (site.wait_edges merges
    # both managers), chose a victim, and the survivor committed.
    assert "done" in (p1.exit_status, p2.exit_status)
    assert len(done) >= 1
    assert cluster.engine.now < 10.0  # resolved, not wedged


# ----------------------------------------------------------------------
# default-off: the paper reproductions are untouched
# ----------------------------------------------------------------------

def test_cache_off_by_default_and_inert():
    assert SystemConfig().lock_cache is False
    cluster = Cluster(site_ids=(1, 2))
    cluster.enable_observability()
    drive(cluster.engine, cluster.create_file("/f", site_id=1))
    drive(cluster.engine, cluster.populate("/f", b"." * 1000))

    def prog(sys):
        yield from txn_lock_cycles(sys, "/f", 3)

    p = cluster.spawn(prog, site_id=2)
    cluster.run()
    assert p.exit_status == "done", p.exit_value
    assert [site.leases for site in cluster.sites.values()] == [None, None]
    counters = cluster.obs.metrics.counters_by_site()
    assert not any("lock.cache" in name
                   for values in counters.values() for name in values)


def test_cache_off_run_matches_cache_never_configured():
    """Belt and braces for byte-identical default behaviour: explicit
    lock_cache=False and the default config produce identical runs."""

    def run(config):
        cluster = Cluster(site_ids=(1, 2, 3), config=config)
        drive(cluster.engine, cluster.create_file("/f", site_id=1))
        drive(cluster.engine, cluster.populate("/f", b"." * 1000))
        procs = [cluster.spawn(txn_lock_cycles, "/f", 2, site_id=s)
                 for s in (2, 3)]
        cluster.run()
        return (cluster.engine.now, cluster.io_stats(),
                cluster.network.stats.get("net.messages"),
                [(p.exit_status, p.exit_value) for p in procs])

    assert run(SystemConfig()) == run(SystemConfig(lock_cache=False))


# ----------------------------------------------------------------------
# the requesting-site cache of own grants does not grow
# ----------------------------------------------------------------------

def test_exited_non_transaction_lockers_leave_the_site_cache_empty():
    """Non-transaction holders are never ``drop_holder``-ed: what they
    release has to leave the cache on its own (each used to leave an
    empty entry behind for the life of the site)."""
    cluster = build(nsites=2, lock_cache=False)

    def prog(sys, i):
        fd = yield from sys.open("/f", write=True)
        yield from sys.seek(fd, 16 * i)
        yield from sys.lock(fd, 16)
        yield from sys.close(fd)

    procs = [cluster.spawn(lambda sys, i=i: prog(sys, i), site_id=2)
             for i in range(50)]
    cluster.run()
    assert [p.exit_status for p in procs] == ["done"] * 50
    assert not cluster.site(2).lock_list._granted
    assert len(cluster.site(2).prefetch_cache) == 0
