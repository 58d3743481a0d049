"""The indexed lock table answers every query exactly as a flat scan does.

``LockTable`` keeps a by-holder map and an interval index of granted
ranges beside its record list.  Here a brute-force table -- one dict,
every query a scan over all of it, the algorithm the indexes replaced --
lives in the test file, and random grant / convert / release / retain /
non-transaction unlock / ``release_holder`` sequences are run through
both; after every step every query must agree, and the index must be
in canonical form.  Grants are *not* arbitrated first, so co-holders,
whole-file locks, conversions and outright Figure 1 violations (the
``conflicting_pairs`` cross-check's reason to exist) all occur.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.locking import LockMode, LockTable
from repro.locking.intervals import IntervalIndex
from repro.locking.modes import compatible, unix_access_allowed
from repro.rangeset import RangeSet

S, X = LockMode.SHARED, LockMode.EXCLUSIVE
HOLDERS = [("txn", 1), ("txn", 2), ("txn", 3), ("proc", 9)]
STRANGER = ("txn", 99)
WHOLE_FILE = (0, 1 << 20)


class ScanRecord:
    def __init__(self, holder, mode, nontrans):
        self.holder, self.mode, self.nontrans = holder, mode, nontrans
        self.ranges, self.retained = RangeSet(), RangeSet()

    def key(self):
        return (self.holder, self.mode, self.nontrans)


class ScanTable:
    """The reference: a flat record dict, scanned in full by every
    query and every mutator."""

    def __init__(self):
        self._records = {}

    def _purge(self):
        for key in [k for k, r in self._records.items() if not r.ranges]:
            del self._records[key]

    def _of(self, holder):
        return [r for r in self._records.values() if r.holder == holder]

    # queries ----------------------------------------------------------
    def records(self):
        return list(self._records.values())

    def holders(self):
        return sorted({r.holder for r in self._records.values()})

    def ranges_of(self, holder, mode=None):
        out = RangeSet()
        for rec in self._of(holder):
            if mode is None or rec.mode is mode:
                out = out.union(rec.ranges)
        return out

    def retained_of(self, holder):
        out = RangeSet()
        for rec in self._of(holder):
            out = out.union(rec.retained)
        return out

    def conflicts(self, holder, mode, start, end):
        return sorted({
            rec.holder for rec in self._records.values()
            if rec.holder != holder and not compatible(mode, rec.mode)
            and rec.ranges.overlaps(start, end)
        })

    def unix_conflicts(self, accessor, want_write, start, end):
        return sorted({
            rec.holder for rec in self._records.values()
            if rec.holder != accessor and rec.ranges.overlaps(start, end)
            and not unix_access_allowed(want_write, rec.mode)
        })

    def conflicting_pairs(self, start, end):
        live = [r for r in self._records.values()
                if r.ranges.overlaps(start, end)]
        return [
            (a, b) for i, a in enumerate(live) for b in live[i + 1:]
            if a.holder != b.holder and not compatible(a.mode, b.mode)
            and a.ranges.clamp(start, end).overlaps_set(
                b.ranges.clamp(start, end))
        ]

    def covering_mode(self, holder, start, end, nontrans=None):
        window = RangeSet.single(start, end)
        for mode in (X, S):
            covered = RangeSet()
            for rec in self._of(holder):
                if rec.mode is mode and nontrans in (None, rec.nontrans):
                    covered = covered.union(rec.ranges)
            if not window.difference(covered):
                return mode
        return None

    def is_locked_by(self, holder, start, end, mode=None):
        return any(rec.ranges.overlaps(start, end) for rec in self._of(holder)
                   if mode is None or rec.mode is mode)

    # mutation ---------------------------------------------------------
    def grant(self, holder, mode, start, end, nontrans=False):
        key = (holder, mode, nontrans)
        for rec in self._of(holder):
            if rec.key() != key:
                rec.ranges.remove(start, end)
                rec.retained.remove(start, end)
        rec = self._records.setdefault(key, ScanRecord(*key))
        rec.ranges.add(start, end)
        rec.retained.remove(start, end)
        self._purge()

    def release(self, holder, start, end):
        for rec in self._of(holder):
            rec.ranges.remove(start, end)
            rec.retained.remove(start, end)
        self._purge()

    def retain(self, holder, start, end):
        for rec in self._of(holder):
            rec.retained = rec.retained.union(rec.ranges.clamp(start, end))

    def unlock(self, holder, start, end):
        released = False
        for rec in self._of(holder):
            if rec.nontrans:
                released = released or rec.ranges.overlaps(start, end)
                rec.ranges.remove(start, end)
                rec.retained.remove(start, end)
            else:
                rec.retained = rec.retained.union(
                    rec.ranges.clamp(start, end))
        self._purge()
        return released

    def release_holder(self, holder):
        freed = self.ranges_of(holder)
        for rec in self._of(holder):
            del self._records[rec.key()]
        return freed


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------

def shape(records):
    return [(r.key(), r.ranges.runs, r.retained.runs) for r in records]


def pair_keys(pairs):
    return {frozenset((a.key(), b.key())) for a, b in pairs}


def assert_canonical(index, items_at):
    """The index's structural invariant, and its content against
    ``items_at(byte)`` on both sides of every breakpoint."""
    keys, cover = index._keys, index._cover
    assert len(keys) == len(cover)
    assert keys == sorted(set(keys))
    for i, members in enumerate(cover):
        assert members != (cover[i - 1] if i else {}), "equal neighbours"
    assert not cover or cover[-1] == {}
    for point in keys:
        for byte in (point - 1, point):
            if byte >= 0:
                assert set(index.overlapping(byte, byte + 1)) \
                    == items_at(byte), byte


def assert_same(table, ref, probes):
    assert shape(table.records()) == shape(ref.records())
    assert table.live_count() == len(ref.records())
    assert table.is_empty() == (not ref.records())
    assert table.holders() == ref.holders()
    for holder in HOLDERS + [STRANGER]:
        assert table.retained_of(holder) == ref.retained_of(holder)
        for mode in (None, S, X):
            assert table.ranges_of(holder, mode) == ref.ranges_of(holder, mode)
        for start, end in probes:
            for mode in (S, X):
                assert table.conflicts(holder, mode, start, end) \
                    == ref.conflicts(holder, mode, start, end)
                assert table.is_locked_by(holder, start, end, mode) \
                    == ref.is_locked_by(holder, start, end, mode)
            for want_write in (False, True):
                assert table.unix_conflicts(holder, want_write, start, end) \
                    == ref.unix_conflicts(holder, want_write, start, end)
            if start < end:
                for nontrans in (None, False, True):
                    assert table.covering_mode(holder, start, end, nontrans) \
                        is ref.covering_mode(holder, start, end, nontrans)
    for start, end in probes:
        assert pair_keys(table.conflicting_pairs(start, end)) \
            == pair_keys(ref.conflicting_pairs(start, end))
    records = table.records()
    assert_canonical(
        table._granted,
        lambda byte: {r for r in records if byte in r.ranges})
    by_holder = {}
    for rec in records:
        by_holder.setdefault(rec.holder, []).append(rec)
    assert table._by_holder == by_holder


# ----------------------------------------------------------------------
# random sequences
# ----------------------------------------------------------------------

ranges = st.one_of(
    st.tuples(st.integers(0, 60), st.integers(0, 20)).map(
        lambda t: (t[0], t[0] + t[1])),     # zero-length included
    st.just(WHOLE_FILE),
)
holders = st.sampled_from(HOLDERS)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("grant"), holders, st.sampled_from([S, X]), ranges,
                  st.booleans()),
        st.tuples(st.just("release"), holders, ranges),
        st.tuples(st.just("retain"), holders, ranges),
        st.tuples(st.just("unlock"), holders, ranges),
        st.tuples(st.just("release_holder"), holders),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(operations)
def test_indexed_table_matches_flat_scan(ops):
    table, ref = LockTable(), ScanTable()
    for op in ops:
        name, holder, args = op[0], op[1], op[2:]
        if name == "grant":
            mode, (start, end), nontrans = args
            args = (mode, start, end, nontrans)
        elif name != "release_holder":
            args = args[0]
        got = getattr(table, name)(holder, *args)
        want = getattr(ref, name)(holder, *args)
        assert got == want, op
        probes = [WHOLE_FILE, (0, 30), (25, 45), (59, 61)]
        if name != "release_holder":
            start, end = args[-3:-1] if name == "grant" else args
            probes += [(start, end), (max(start - 1, 0), end + 1)]
        assert_same(table, ref, probes)


def test_shared_coholders_upgrade_and_downgrade():
    """A hand-written walk through the cases the issue names, so a
    reader sees them without decoding a hypothesis example."""
    table, ref = LockTable(), ScanTable()
    t1, t2, t3, p9 = HOLDERS
    steps = [
        ("grant", t1, S, 0, 16, False), ("grant", t2, S, 0, 16, False),
        ("grant", t3, S, *WHOLE_FILE, False),       # wide co-holder
        ("grant", t1, X, 4, 8, False),               # upgrade the middle
        ("grant", t1, S, 4, 8, False),               # and back down
        ("grant", p9, X, 16, 32, True),
        ("grant", t2, X, 40, 40, False),             # zero length
        ("retain", t1, 0, 16), ("unlock", t2, 0, 8),
        ("grant", t2, X, 100, 116, True), ("unlock", t2, 104, 108),
        ("release", t3, 8, 1 << 19), ("release_holder", t1),
        ("release_holder", t2), ("release_holder", t3),
        ("release_holder", p9),
    ]
    for name, holder, *args in steps:
        assert getattr(table, name)(holder, *args) \
            == getattr(ref, name)(holder, *args)
        assert_same(table, ref, [WHOLE_FILE, (0, 16), (4, 8), (100, 116)])
    assert table.is_empty() and not table._granted


# ----------------------------------------------------------------------
# the interval index on its own (the lock manager's waiter index too)
# ----------------------------------------------------------------------

index_ops = st.lists(
    st.tuples(st.booleans(), st.integers(0, 5), st.integers(0, 40),
              st.integers(0, 12)),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(index_ops)
def test_interval_index_matches_per_byte_model(ops):
    index, model = IntervalIndex(), {}   # model: byte -> set of items
    for add, item, start, length in ops:
        end = start + length
        if add:
            index.add(start, end, item)
            for byte in range(start, end):
                model.setdefault(byte, set()).add(item)
        else:
            index.remove(start, end, item)
            for byte in range(start, end):
                model.get(byte, set()).discard(item)
        assert_canonical(index, lambda byte: model.get(byte, set()))
        assert bool(index) == any(model.values())
        for lo in range(0, 56, 3):
            for hi in (lo, lo + 1, lo + 7):
                want = set().union(*(model.get(b, ()) for b in range(lo, hi)))
                assert set(index.overlapping(lo, hi)) == want
