"""Lease bookkeeping units: the storage-site registry and the
using-site cache (docs/LOCK_CACHE.md)."""

import pytest

from repro.locking import LockManager, LockMode
from repro.locking.lease import LeaseCache, LeaseRegistry
from tests.conftest import drive

X = LockMode.EXCLUSIVE
T1, T2 = ("txn", 1), ("txn", 2)
F = (1, 7)


@pytest.fixture
def mgr(eng, cost):
    return LockManager(eng, cost)


@pytest.fixture
def reg():
    return LeaseRegistry(span=1024, duration=5.0)


# ----------------------------------------------------------------------
# LeaseRegistry (storage site)
# ----------------------------------------------------------------------

def test_grant_rounds_out_to_span(reg, mgr):
    got = reg.grant(F, 2, T1, 100, 200, now=1.0, manager=mgr)
    assert got == (0, 1024, 6.0)
    lease = reg.lease_of(F, 2)
    assert lease.ranges.overlaps(0, 1024)
    assert lease.expiry == 6.0


def test_grant_shrinks_to_exact_range_on_window_conflict(reg, mgr, eng):
    drive(eng, mgr.lock(F, T2, X, 900, 1000))
    got = reg.grant(F, 2, T1, 100, 200, now=0.0, manager=mgr)
    assert got == (100, 200, 5.0)


def test_grant_refused_when_exact_range_conflicts(reg, mgr, eng):
    drive(eng, mgr.lock(F, T2, X, 150, 180))
    assert reg.grant(F, 2, T1, 100, 200, now=0.0, manager=mgr) is None


def test_grant_refused_over_other_sites_lease(reg, mgr, eng):
    # A conflicting lock at the block head shrinks site 2's lease to
    # exactly (900, 1000), leaving room in the block for the checks below.
    drive(eng, mgr.lock(F, ("txn", 8), X, 0, 50))
    assert reg.grant(F, 2, T1, 900, 1000, now=0.0, manager=mgr) == (900, 1000, 5.0)
    # Site 3's span window (0, 1024) crosses site 2's lease: shrink.
    assert reg.grant(F, 3, T2, 100, 200, now=0.0, manager=mgr) == (100, 200, 5.0)
    # Even the exact range overlaps site 2's lease: refuse.
    assert reg.grant(F, 3, T2, 950, 980, now=0.0, manager=mgr) is None


def test_grant_refused_over_queued_waiter(reg, mgr, eng):
    drive(eng, mgr.lock(F, T1, X, 0, 50))

    def blocked():
        yield from mgr.lock(F, T2, X, 0, 50)

    eng.process(blocked())
    eng.run(until=0.1)
    assert mgr.waiters(F)
    assert reg.grant(F, 2, ("txn", 9), 20, 40, now=0.0, manager=mgr) is None


def test_grant_refused_mid_recall(reg, mgr, eng):
    reg.grant(F, 2, T1, 0, 100, now=0.0, manager=mgr)
    reg.lease_of(F, 2).recall_event = eng.event()
    assert reg.grant(F, 2, T1, 0, 100, now=0.0, manager=mgr) is None


def test_conflicting_returns_overlapping_leases(reg, mgr):
    reg.grant(F, 2, T1, 0, 100, now=0.0, manager=mgr)
    assert reg.conflicting(F, 500, 600)  # same span window
    assert not reg.conflicting(F, 5000, 5100)
    assert reg.conflicting((9, 9), 0, 10) == []


def test_refresh_extends_but_not_mid_recall(reg, mgr, eng):
    reg.grant(F, 2, T1, 0, 100, now=0.0, manager=mgr)
    assert reg.refresh(F, 2, now=3.0) == 8.0
    reg.lease_of(F, 2).recall_event = eng.event()
    assert reg.refresh(F, 2, now=4.0) is None
    assert reg.refresh((9, 9), 2, now=4.0) is None


def test_drop_resolves_inflight_recall(reg, mgr, eng):
    reg.grant(F, 2, T1, 0, 100, now=0.0, manager=mgr)
    event = eng.event()
    reg.lease_of(F, 2).recall_event = event
    reg.drop(F, 2)
    assert event.triggered
    assert reg.lease_of(F, 2) is None


def test_drop_site_forgets_all_leases(reg, mgr):
    reg.grant(F, 2, T1, 0, 100, now=0.0, manager=mgr)
    reg.grant((1, 8), 2, T1, 0, 100, now=0.0, manager=mgr)
    reg.grant((1, 8), 3, T2, 9000, 9100, now=0.0, manager=mgr)
    reg.drop_site(2)
    assert reg.lease_of(F, 2) is None
    assert reg.lease_of((1, 8), 2) is None
    assert reg.lease_of((1, 8), 3) is not None
    assert reg.leased_files() == [(1, 8)]


# ----------------------------------------------------------------------
# LeaseCache (using site)
# ----------------------------------------------------------------------

def test_cache_covers_within_window_and_expiry():
    cache = LeaseCache()
    cache.grant(F, 1, 0, 1024, expiry=5.0)
    assert cache.covers(F, 100, 200, now=1.0)
    assert not cache.covers(F, 1000, 1100, now=1.0)  # crosses the window
    assert not cache.covers((9, 9), 0, 10, now=1.0)
    assert cache.storage_of(F) == 1


def test_cache_expired_lease_answers_false_but_is_kept():
    cache = LeaseCache()
    cache.grant(F, 1, 0, 1024, expiry=5.0)
    assert not cache.covers(F, 100, 200, now=5.0)
    assert cache.stats["expired"] == 1
    assert cache.storage_of(F) == 1  # still tracked for the recall
    cache.renew(F, 9.0)
    assert cache.covers(F, 100, 200, now=6.0)


def test_cache_renew_never_shortens():
    cache = LeaseCache()
    cache.grant(F, 1, 0, 1024, expiry=5.0)
    cache.renew(F, 3.0)
    assert cache.covers(F, 0, 10, now=4.0)


def test_cache_files_from_and_drop_unreachable():
    cache = LeaseCache()
    cache.grant(F, 1, 0, 1024, expiry=5.0)
    cache.grant((1, 8), 1, 0, 1024, expiry=5.0)
    cache.grant((2, 3), 2, 0, 1024, expiry=5.0)
    assert cache.files_from(1) == [F, (1, 8)]
    dropped = cache.drop_unreachable(lambda sid: sid != 1)
    assert sorted(dropped, key=str) == [F, (1, 8)]
    assert cache.storage_of(F) is None
    assert cache.storage_of((2, 3)) == 2


def test_cache_mirrored_bookkeeping():
    cache = LeaseCache()
    cache.grant(F, 1, 0, 1024, expiry=5.0)
    cache.note_mirrored(F, T1, 0, 50)
    assert cache.mirrored_of(F)[T1].overlaps(0, 50)
    cache.drop_holder(T1)
    assert T1 not in cache.mirrored_of(F)
    cache.note_mirrored(F, T2, 0, 10)
    cache.drop_file(F)
    assert cache.mirrored_of(F) == {}
    assert not cache.covers(F, 0, 10, now=0.0)
