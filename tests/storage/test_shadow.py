"""Shadow-page commit: Figure 4 semantics, differencing, recovery paths."""

import pytest

from repro.storage import IntentionsList, OpenFileState, ShadowError, Volume
from tests.conftest import drive

A = ("txn", 1)
B = ("txn", 2)
P = ("proc", 77)


@pytest.fixture
def vol(eng, cost):
    return Volume(eng, cost, vol_id=1)


def make_file(eng, cost, vol, initial=b"", **kw):
    """Create a file with committed ``initial`` contents."""
    ino = drive(eng, vol.create_file())
    state = OpenFileState(eng, cost, vol, ino, **kw)
    if initial:
        def setup():
            yield from state.write(("proc", 0), 0, initial)
            yield from state.commit(("proc", 0))
        drive(eng, setup())
    return ino, state


def disk_bytes(eng, cost, vol, ino, offset, nbytes):
    """Read committed contents through a *fresh* state (disk truth)."""
    fresh = OpenFileState(eng, cost, vol, ino)
    return drive(eng, fresh.read(offset, nbytes))


# ----------------------------------------------------------------------
# basics
# ----------------------------------------------------------------------

def test_write_read_round_trip(eng, cost, vol):
    _ino, f = make_file(eng, cost, vol)

    def prog():
        yield from f.write(A, 0, b"hello world")
        return (yield from f.read(0, 11))

    assert drive(eng, prog()) == b"hello world"
    assert f.size == 11


def test_read_clips_to_size(eng, cost, vol):
    _ino, f = make_file(eng, cost, vol, initial=b"abc")
    assert drive(eng, f.read(0, 100)) == b"abc"
    assert drive(eng, f.read(2, 100)) == b"c"
    assert drive(eng, f.read(5, 10)) == b""


def test_multi_page_write_and_read(eng, cost, vol):
    _ino, f = make_file(eng, cost, vol)
    blob = bytes(range(256)) * 20  # 5120 bytes = 5 pages

    def prog():
        yield from f.write(A, 100, blob)
        return (yield from f.read(100, len(blob)))

    assert drive(eng, prog()) == blob
    assert f.size == 100 + len(blob)


def test_uncommitted_data_visible_to_other_readers(eng, cost, vol):
    """Section 5: uncommitted changes are generally visible."""
    _ino, f = make_file(eng, cost, vol, initial=b"old old old!")

    def prog():
        yield from f.write(A, 0, b"new")
        return (yield from f.read(0, 12))

    assert drive(eng, prog()) == b"new old old!"


def test_hole_reads_zeros(eng, cost, vol):
    _ino, f = make_file(eng, cost, vol)
    psize = cost.page_size

    def prog():
        yield from f.write(A, 2 * psize, b"tail")
        return (yield from f.read(0, 4))

    assert drive(eng, prog()) == b"\x00\x00\x00\x00"
    assert f.size == 2 * psize + 4


# ----------------------------------------------------------------------
# sole-owner commit and abort (Figure 4a)
# ----------------------------------------------------------------------

def test_commit_makes_data_durable(eng, cost, vol):
    ino, f = make_file(eng, cost, vol)

    def prog():
        yield from f.write(A, 0, b"durable")
        yield from f.commit(A)

    drive(eng, prog())
    assert disk_bytes(eng, cost, vol, ino, 0, 7) == b"durable"
    assert vol.inode(ino).size == 7
    assert f.is_idle()


def test_sole_owner_commit_ios(eng, cost, vol):
    """Non-overlap commit: one data write + one inode write, no reads
    (the latency side of Figure 6's non-overlap row)."""
    _ino, f = make_file(eng, cost, vol)

    def prog():
        yield from f.write(A, 0, b"x" * 100)
        snap = vol.stats.snapshot()
        yield from f.commit(A)
        return vol.stats.delta_since(snap)

    delta = drive(eng, prog())
    assert delta.get("io.write.data", 0) == 1
    assert delta.get("io.write.inode", 0) == 1
    assert delta.get("io.read.data", 0) == 0


def test_abort_sole_owner_discards_shadow(eng, cost, vol):
    ino, f = make_file(eng, cost, vol, initial=b"original")

    def prog():
        yield from f.write(A, 0, b"SCRIBBLE")
        yield from f.abort(A)
        return (yield from f.read(0, 8))

    assert drive(eng, prog()) == b"original"
    assert f.is_idle()
    assert vol.inode(ino).size == 8


def test_abort_resets_uncommitted_extension(eng, cost, vol):
    _ino, f = make_file(eng, cost, vol, initial=b"12345")

    def prog():
        yield from f.write(A, 100, b"way out there")
        assert f.size == 113
        yield from f.abort(A)

    drive(eng, prog())
    assert f.size == 5


def test_commit_updates_version(eng, cost, vol):
    ino, f = make_file(eng, cost, vol)
    v0 = vol.inode(ino).version

    def prog():
        yield from f.write(A, 0, b"v")
        yield from f.commit(A)

    drive(eng, prog())
    assert vol.inode(ino).version == v0 + 1


def test_write_after_prepare_rejected(eng, cost, vol):
    _ino, f = make_file(eng, cost, vol)

    def prog():
        yield from f.write(A, 0, b"a")
        yield from f.flush(A)
        yield from f.write(A, 1, b"b")

    with pytest.raises(ShadowError):
        drive(eng, prog())


# ----------------------------------------------------------------------
# overlapping owners on one page (Figure 4b)
# ----------------------------------------------------------------------

def overlap_setup(eng, cost, vol, **kw):
    """Committed base page, then A and B write disjoint records on it."""
    ino, f = make_file(eng, cost, vol, initial=b"." * 600, **kw)

    def prog():
        yield from f.write(A, 0, b"A" * 100)     # bytes [0,100)
        yield from f.write(B, 300, b"B" * 100)   # bytes [300,400)

    drive(eng, prog())
    return ino, f


def test_differenced_commit_excludes_neighbours_bytes(eng, cost, vol):
    ino, f = overlap_setup(eng, cost, vol)
    drive(eng, f.commit(A))
    on_disk = disk_bytes(eng, cost, vol, ino, 0, 600)
    assert on_disk[:100] == b"A" * 100            # A committed
    assert on_disk[300:400] == b"." * 100         # B's bytes NOT leaked
    # Working image still shows B's uncommitted bytes.
    assert drive(eng, f.read(300, 100)) == b"B" * 100


def test_second_commit_preserves_first(eng, cost, vol):
    ino, f = overlap_setup(eng, cost, vol)
    drive(eng, f.commit(A))
    drive(eng, f.commit(B))
    on_disk = disk_bytes(eng, cost, vol, ino, 0, 600)
    assert on_disk[:100] == b"A" * 100
    assert on_disk[300:400] == b"B" * 100
    assert f.is_idle()


def test_overlap_commit_costs_one_extra_read(eng, cost, vol):
    """The measured system re-reads the previous version (Figure 6:
    overlap latency exceeds non-overlap by ~one disk I/O)."""
    _ino, f = overlap_setup(eng, cost, vol)

    def prog():
        snap = vol.stats.snapshot()
        yield from f.commit(A)
        return vol.stats.delta_since(snap)

    delta = drive(eng, prog())
    assert delta.get("io.read.data", 0) == 1
    assert delta.get("io.write.data", 0) == 1
    assert delta.get("io.write.inode", 0) == 1


def test_clean_copy_optimization_avoids_the_reread(eng, cost, vol):
    """Footnote 7's proposed optimization: keep clean copies cached."""
    _ino, f = overlap_setup(eng, cost, vol, keep_clean_copies=True)

    def prog():
        snap = vol.stats.snapshot()
        yield from f.commit(A)
        return vol.stats.delta_since(snap)

    delta = drive(eng, prog())
    assert delta.get("io.read.data", 0) == 0


def test_abort_with_overlap_restores_only_aborters_bytes(eng, cost, vol):
    ino, f = overlap_setup(eng, cost, vol)
    drive(eng, f.abort(B))
    assert drive(eng, f.read(0, 100)) == b"A" * 100     # A intact
    assert drive(eng, f.read(300, 100)) == b"." * 100   # B reverted
    drive(eng, f.commit(A))
    on_disk = disk_bytes(eng, cost, vol, ino, 0, 600)
    assert on_disk[:100] == b"A" * 100
    assert on_disk[300:400] == b"." * 100


def test_abort_then_commit_other_owner_direct_path(eng, cost, vol):
    """After B aborts, A is sole owner: commit takes the direct path."""
    _ino, f = overlap_setup(eng, cost, vol)
    drive(eng, f.abort(B))

    def prog():
        snap = vol.stats.snapshot()
        yield from f.commit(A)
        return vol.stats.delta_since(snap)

    delta = drive(eng, prog())
    assert delta.get("io.read.data", 0) == 0  # no differencing needed


# ----------------------------------------------------------------------
# prepare / apply split, re-merge, idempotence (2PC integration points)
# ----------------------------------------------------------------------

def test_flush_is_idempotent(eng, cost, vol):
    _ino, f = make_file(eng, cost, vol)

    def prog():
        yield from f.write(A, 0, b"z")
        i1 = yield from f.flush(A)
        i2 = yield from f.flush(A)
        return i1 is i2

    assert drive(eng, prog()) is True


def test_apply_is_idempotent(eng, cost, vol):
    ino, f = make_file(eng, cost, vol)

    def prog():
        yield from f.write(A, 0, b"once")
        intents = yield from f.flush(A)
        yield from f.apply(intents)
        snap = vol.stats.snapshot()
        yield from f.apply(intents)  # duplicate commit message (4.4)
        return vol.stats.delta_since(snap)

    delta = drive(eng, prog())
    assert delta.get("io.write.data", 0) == 0
    assert disk_bytes(eng, cost, vol, ino, 0, 4) == b"once"


def test_remerge_when_other_owner_committed_between_flush_and_apply(eng, cost, vol):
    """A prepares; B commits the same page; A's apply must re-merge so
    B's committed bytes survive."""
    ino, f = overlap_setup(eng, cost, vol)

    def prog():
        intents_a = yield from f.flush(A)
        yield from f.commit(B)
        yield from f.apply(intents_a)

    drive(eng, prog())
    on_disk = disk_bytes(eng, cost, vol, ino, 0, 600)
    assert on_disk[:100] == b"A" * 100
    assert on_disk[300:400] == b"B" * 100


def test_a_remerged_apply_redone_leaves_the_committed_bytes(eng, cost, vol):
    """Recovery redoes a phase two that had re-merged: the redo re-merges
    from A's shadow block again, so that block keeps A's image until the
    prepare record naming it is gone -- then ``free_stale`` frees it."""
    ino, f = overlap_setup(eng, cost, vol)

    def prog():
        intents_a = yield from f.flush(A)
        yield from f.commit(B)
        yield from f.apply(intents_a)
        vol.cache.clear()  # crash before the prepare record is cleared
        redo = IntentionsList.from_record(intents_a.to_record())
        yield from OpenFileState(eng, cost, vol, ino).apply(redo)
        return redo

    redo = drive(eng, prog())
    on_disk = disk_bytes(eng, cost, vol, ino, 0, 600)
    assert on_disk[:100] == b"A" * 100
    assert on_disk[300:400] == b"B" * 100
    shadow = redo.entries[0].new_block
    assert vol.disk.exists(shadow)
    redo.free_stale(vol)
    assert not vol.disk.exists(shadow)
    assert disk_bytes(eng, cost, vol, ino, 0, 600) == on_disk


def test_a_non_transaction_commit_frees_what_it_remerged(eng, cost, vol):
    """``commit`` keeps no prepare record, so the shadow block a
    re-merge supersedes is freed as the commit ends.  A and B commit at
    once: B flushes while A does, so B's apply re-merges onto A's."""
    ino, f = overlap_setup(eng, cost, vol)
    blocks = vol.disk.block_count
    flushed = []
    flush = f.flush

    def recording_flush(owner):
        intents = yield from flush(owner)
        flushed.append(intents)
        return intents

    f.flush = recording_flush
    eng.process(f.commit(A))
    eng.process(f.commit(B))
    eng.run()
    ours = [e.new_block for intents in flushed for e in intents.entries]
    assert vol.inode(ino).block_for(0) not in ours  # B re-merged
    assert not any(vol.disk.exists(block) for block in ours)
    on_disk = disk_bytes(eng, cost, vol, ino, 0, 600)
    assert on_disk[:100] == b"A" * 100 and on_disk[300:400] == b"B" * 100
    assert vol.disk.block_count == blocks


def test_apply_from_record_after_crash(eng, cost, vol):
    """Recovery: in-core state lost; apply reconstructed intentions on a
    fresh OpenFileState (what phase-two replay does after a reboot)."""
    ino, f = make_file(eng, cost, vol)

    def prepare():
        yield from f.write(A, 0, b"survives crash")
        intents = yield from f.flush(A)
        return intents.to_record()

    record = drive(eng, prepare())
    vol.cache.clear()  # crash: working buffers and cache gone
    fresh = OpenFileState(eng, cost, vol, ino)
    drive(eng, fresh.apply(IntentionsList.from_record(record)))
    assert disk_bytes(eng, cost, vol, ino, 0, 14) == b"survives crash"


def test_intentions_record_round_trip(eng, cost, vol):
    _ino, f = make_file(eng, cost, vol)

    def prog():
        yield from f.write(A, 10, b"abc")
        return (yield from f.flush(A))

    intents = drive(eng, prog())
    rec = intents.to_record()
    back = IntentionsList.from_record(rec)
    assert back.ino == intents.ino
    assert back.owner_extent == 13
    assert len(back.entries) == 1
    assert back.entries[0].ranges.runs == ((10, 13),)


# ----------------------------------------------------------------------
# adoption (lock rule 2 support)
# ----------------------------------------------------------------------

def test_adopt_transfers_dirty_ranges(eng, cost, vol):
    ino, f = make_file(eng, cost, vol, initial=b"-" * 50)

    def prog():
        yield from f.write(P, 10, b"dirty")  # non-transaction modifies
        f.adopt(A, P, 0, 50)                 # txn locks the dirty record
        yield from f.commit(A)               # txn commits -> P's bytes too

    drive(eng, prog())
    assert disk_bytes(eng, cost, vol, ino, 10, 5) == b"dirty"
    assert f.is_idle()


def test_adopt_is_range_limited(eng, cost, vol):
    _ino, f = make_file(eng, cost, vol, initial=b"-" * 50)

    def prog():
        yield from f.write(P, 0, b"aaaa")
        yield from f.write(P, 20, b"bbbb")
        f.adopt(A, P, 0, 10)  # only the first record
        yield from f.commit(A)

    drive(eng, prog())
    owners = f.dirty_owners(0, 50)
    assert A not in owners
    assert owners[P].runs == ((20, 24),)


def test_dirty_owners_reports_file_relative_ranges(eng, cost, vol):
    _ino, f = make_file(eng, cost, vol)
    psize = cost.page_size

    def prog():
        yield from f.write(A, psize + 5, b"xyz")
        yield from f.write(B, 7, b"qq")

    drive(eng, prog())
    owners = f.dirty_owners(0, 2 * psize)
    assert owners[A].runs == ((psize + 5, psize + 8),)
    assert owners[B].runs == ((7, 9),)
    assert f.dirty_owners(0, 5) == {}


# ----------------------------------------------------------------------
# read-only owner
# ----------------------------------------------------------------------

def test_readonly_owner_commit_is_free(eng, cost, vol):
    """A transaction that only read a file commits it with no I/O."""
    _ino, f = make_file(eng, cost, vol, initial=b"readme")

    def prog():
        yield from f.read(0, 6)
        snap = vol.stats.snapshot()
        yield from f.commit(A)
        return vol.stats.delta_since(snap)

    delta = drive(eng, prog())
    assert sum(v for k, v in delta.items() if k.startswith("io.")) == 0


# ----------------------------------------------------------------------
# the per-file mutex under kill and interrupt
# ----------------------------------------------------------------------

@pytest.mark.parametrize("stop", ["kill", "interrupt"])
@pytest.mark.parametrize("victim", [0, 1], ids=["in-service", "queued"])
def test_file_mutex_survives_a_stopped_flusher(eng, cost, vol, stop, victim):
    """Three owners flush one file: one holds the mutex (it is waiting
    for its shadow-page write), two queue on it.  Whoever stops, the
    others still prepare.  The queued cases used to wedge the file: the
    mutex was handed to the dead waiter and never released."""
    _ino, f = make_file(eng, cost, vol, initial=b"." * 30)
    owners = [("txn", 1), ("txn", 2), ("txn", 3)]

    def flusher(owner, offset):
        yield from f.write(owner, offset, b"x" * 10)
        return (yield from f.flush(owner))

    procs = [eng.process(flusher(owner, 10 * i))
             for i, owner in enumerate(owners)]
    # Far enough for all three writes (buffer hits) and for the first
    # flusher to be inside its disk write; the other two are queued.
    eng.run(until=eng.now + cost.disk_io_time / 2)
    assert (f._mutex.in_use, f._mutex.queue_length) == (1, 2)
    getattr(procs[victim], stop)()
    eng.run()
    survivors = [p for i, p in enumerate(procs) if i != victim]
    assert [p.state for p in survivors] == ["done", "done"]
    assert all(isinstance(p.value, IntentionsList) for p in survivors)
    assert (f._mutex.in_use, f._mutex.queue_length) == (0, 0)
    # And the file is still usable: the stopped owner's changes abort.
    drive(eng, f.abort(owners[victim]))
    for p in survivors:
        drive(eng, f.apply(p.value))
    assert (f._mutex.in_use, f._mutex.queue_length) == (0, 0)
