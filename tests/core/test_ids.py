"""Transaction identifiers: temporal uniqueness and ordering."""

import copy
import pickle

import pytest

from repro.core import TransactionId, TransactionIdGenerator
from repro.sim import Engine


def test_ids_are_unique_at_one_instant():
    eng = Engine()
    gen = TransactionIdGenerator(eng, site_id=1)
    ids = [gen.next() for _ in range(100)]
    assert len(set(ids)) == 100


def test_ids_are_unique_across_sites():
    eng = Engine()
    a = TransactionIdGenerator(eng, site_id=1)
    b = TransactionIdGenerator(eng, site_id=2)
    assert a.next() != b.next()


def test_later_ids_are_larger():
    eng = Engine()
    gen = TransactionIdGenerator(eng, site_id=1)
    first = gen.next()
    eng.schedule(5.0, lambda: None)
    eng.run()
    second = gen.next()
    assert second > first
    assert second.timestamp == 5.0


def test_sequence_breaks_same_time_ties():
    eng = Engine()
    gen = TransactionIdGenerator(eng, site_id=1)
    a, b = gen.next(), gen.next()
    assert a < b


def test_ids_are_hashable_and_stable():
    eng = Engine()
    gen = TransactionIdGenerator(eng, site_id=1)
    tid = gen.next()
    assert tid in {tid}
    assert ("txn", tid) == ("txn", tid)


def test_copies_keep_identity_and_pickle_keeps_type():
    tid = TransactionId(timestamp=1.5, site_id=2, sequence=7)
    assert copy.copy(tid) is tid
    assert copy.deepcopy({"holder": ("txn", tid)})["holder"][1] is tid
    clone = pickle.loads(pickle.dumps(tid, pickle.HIGHEST_PROTOCOL))
    assert type(clone) is TransactionId and clone == tid
    assert hash(clone) == hash(tid) and clone in {tid}
    assert (clone.timestamp, clone.site_id, clone.sequence) == (1.5, 2, 7)


def test_ids_are_read_only():
    tid = TransactionId(timestamp=1.5, site_id=2, sequence=7)
    with pytest.raises(AttributeError):
        tid.sequence = 8
    with pytest.raises(AttributeError):
        tid.note = "no instance dict either"


def test_repr_and_str_are_the_tid_form():
    tid = TransactionId(timestamp=1.5, site_id=2, sequence=7)
    assert repr(tid) == str(tid) == "tid(1.5.2.7)"
    assert str(("txn", tid)) == "('txn', tid(1.5.2.7))"
    # The id is a tuple: as the right operand of % it must be wrapped.
    assert "%s:%s" % ("txn", tid) == "txn:tid(1.5.2.7)"
    assert "%s" % (tid,) == "tid(1.5.2.7)"


def test_mixed_holders_sort_as_they_always_did():
    """``("proc", pid)`` before ``("txn", tid)``, transactions by age:
    the order wait-for exports and victim choice are built on, here
    against the field-by-field key the hand-written comparators used."""
    tids = [TransactionId(timestamp=t, site_id=s, sequence=q)
            for t in (3.0, 0.0, 1.25) for s in (2, 1) for q in (5, 1)]
    holders = [("txn", tid) for tid in tids] + [("proc", 11), ("proc", 2)]

    def stock_key(holder):
        kind, who = holder
        if kind == "proc":
            return (0, who, 0, 0)
        return (1, who.timestamp, who.site_id, who.sequence)

    assert sorted(holders) == sorted(holders, key=stock_key)
    assert sorted(holders)[:2] == [("proc", 2), ("proc", 11)]
    assert max(holders) == ("txn", TransactionId(3.0, 2, 5))  # youngest
