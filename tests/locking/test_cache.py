"""Requesting-site lock cache (section 5.1)."""

from repro.locking import LockCache, LockMode

S, X = LockMode.SHARED, LockMode.EXCLUSIVE
T1 = ("txn", 1)
F = (1, 2)


def test_covers_after_grant():
    c = LockCache()
    c.record_grant(F, T1, X, 0, 100)
    assert c.covers(F, T1, 10, 20, want_write=True)
    assert c.covers(F, T1, 10, 20, want_write=False)
    assert c.hits == 2


def test_shared_grant_covers_reads_not_writes():
    c = LockCache()
    c.record_grant(F, T1, S, 0, 100)
    assert c.covers(F, T1, 0, 50, want_write=False)
    assert not c.covers(F, T1, 0, 50, want_write=True)


def test_partial_coverage_is_a_miss():
    c = LockCache()
    c.record_grant(F, T1, X, 0, 50)
    assert not c.covers(F, T1, 25, 75, want_write=True)
    assert c.misses == 1


def test_release_uncovers():
    c = LockCache()
    c.record_grant(F, T1, X, 0, 100)
    c.record_release(F, T1, 0, 100)
    assert not c.covers(F, T1, 0, 10, want_write=False)


def test_upgrade_converts_cached_mode():
    c = LockCache()
    c.record_grant(F, T1, S, 0, 100)
    c.record_grant(F, T1, X, 40, 60)
    assert c.covers(F, T1, 40, 60, want_write=True)
    assert c.covers(F, T1, 0, 100, want_write=False)


def test_downgrade_converts_cached_mode():
    c = LockCache()
    c.record_grant(F, T1, X, 0, 100)
    c.record_grant(F, T1, S, 0, 100)
    assert not c.covers(F, T1, 0, 10, want_write=True)
    assert c.covers(F, T1, 0, 10, want_write=False)


def test_drop_holder():
    c = LockCache()
    c.record_grant(F, T1, X, 0, 100)
    c.drop_holder(T1)
    assert not c.covers(F, T1, 0, 10, want_write=False)


def test_other_files_and_holders_do_not_cover():
    c = LockCache()
    c.record_grant(F, T1, X, 0, 100)
    assert not c.covers((1, 3), T1, 0, 10, want_write=True)
    assert not c.covers(F, ("txn", 2), 0, 10, want_write=True)


def test_emptied_entries_and_holders_leave_at_once():
    c = LockCache()
    c.record_grant(F, T1, S, 0, 100)
    c.record_grant(F, T1, X, 0, 100)   # converts the shared entry away
    c.record_grant(F, T1, X, 7, 7)     # covers nothing: caches nothing
    assert list(c._granted) == [T1] and list(c._granted[T1]) == [(F, X)]
    c.record_release(F, T1, 0, 60)
    assert c._granted
    c.record_release(F, T1, 60, 100)
    c.record_release(F, ("proc", 9), 0, 10)  # never cached: no trace
    assert not c._granted
