"""Log files: durability, footnote-9 I/O accounting, truncation, the
by-tid index, and the guard that keeps whole-log walks off the commit
path."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Cluster
from repro.config import CostModel
from repro.sim import Engine
from repro.storage import LogFile, Volume
from repro.workloads import ScalingDriver
from tests.conftest import drive


def make(eng, cost, optimized):
    vol = Volume(eng, cost, vol_id=1)
    return vol, LogFile(eng, cost, vol, name="prepare", optimized=optimized)


def test_append_and_scan(eng, cost):
    vol, log = make(eng, cost, optimized=True)
    drive(eng, log.append({"tid": 1, "status": "unknown"}))
    drive(eng, log.append({"tid": 1, "status": "committed"}))
    entries = log.entries()
    assert [e["status"] for e in entries] == ["unknown", "committed"]
    assert len(log) == 2


def test_unoptimized_append_costs_two_ios(eng, cost):
    vol, log = make(eng, cost, optimized=False)
    drive(eng, log.append({"x": 1}))
    assert vol.stats.get("io.write.log") == 1
    assert vol.stats.get("io.write.log_inode") == 1


def test_optimized_append_costs_one_io(eng, cost):
    vol, log = make(eng, cost, optimized=True)
    drive(eng, log.append({"x": 1}))
    assert vol.stats.get("io.write.log") == 1
    assert vol.stats.get("io.write.log_inode") == 0


def test_entries_are_isolated_from_caller_mutation(eng, cost):
    vol, log = make(eng, cost, optimized=True)
    record = {"files": [1, 2]}
    drive(eng, log.append(record))
    record["files"].append(3)  # caller mutates after the durable write
    assert log.entries()[0]["files"] == [1, 2]
    log.entries()[0]["files"].append(99)  # reader mutates a scan copy
    assert log.entries()[0]["files"] == [1, 2]


def test_remove_where_garbage_collects(eng, cost):
    vol, log = make(eng, cost, optimized=True)
    drive(eng, log.append({"tid": 1}))
    drive(eng, log.append({"tid": 2}))
    log.remove_where(lambda e: e["tid"] == 1)
    assert [e["tid"] for e in log.entries()] == [2]


# ----------------------------------------------------------------------
# the by-tid index against a plain-list model
# ----------------------------------------------------------------------

TIDS = [None, "T1", ("txn", 2), 3]
TYPES = ["txn", "status", "prepare"]

log_ops = st.lists(st.one_of(
    st.tuples(st.sampled_from(["append", "append_in_place"]),
              st.sampled_from(TIDS), st.sampled_from(TYPES)),
    st.tuples(st.just("discard"), st.sampled_from(TIDS[1:]),
              st.sampled_from([None, "prepare", "status"])),
    st.tuples(st.just("remove_where"), st.sampled_from(TIDS),
              st.sampled_from(TYPES)),
), max_size=30)


def assert_log_matches(log, model):
    assert len(log) == len(model)
    assert list(log.scan()) == model
    for tid in TIDS[1:] + ["never written"]:
        assert list(log.records_of(tid)) == [
            r for r in model if r.get("tid") == tid]


@settings(max_examples=200, deadline=None)
@given(log_ops)
def test_index_matches_a_plain_list(ops):
    """Order of ``scan()``, ``len()`` and ``records_of`` after every
    append / discard / predicate removal, records without a ``tid``
    included; a record becomes visible only once its force returned."""
    eng, cost = Engine(), CostModel()
    _vol, log = make(eng, cost, optimized=False)
    model = []
    serial = 0
    for op, tid, kind in ops:
        if op in ("append", "append_in_place"):
            serial += 1
            record = {"type": kind, "n": serial, "payload": [serial]}
            if tid is not None:
                record["tid"] = tid
            proc = eng.process(getattr(log, op)(record))
            while proc.alive:
                assert_log_matches(log, model)  # not durable yet
                assert eng.step()
            record["payload"].append("mutated after the write")
            model.append({**record, "payload": [serial]})
        elif op == "discard":
            log.discard(tid, kind)
            model = [r for r in model if not (
                r.get("tid") == tid and kind in (None, r["type"]))]
        else:
            log.remove_where(
                lambda r: r.get("tid") == tid and r["type"] == kind)
            model = [r for r in model if not (
                r.get("tid") == tid and r["type"] == kind)]
        assert_log_matches(log, model)


def test_discard_by_type_keeps_the_transactions_other_records(eng, cost):
    vol, log = make(eng, cost, optimized=True)
    for kind in ("txn", "prepare", "status"):
        drive(eng, log.append({"tid": 7, "type": kind}))
    drive(eng, log.append({"tid": 8, "type": "prepare"}))
    log.discard(7, "prepare")
    assert [(r["tid"], r["type"]) for r in log.scan()] == [
        (7, "txn"), (7, "status"), (8, "prepare")]
    assert [r["type"] for r in log.records_of(7)] == ["txn", "status"]
    log.discard(7)
    log.discard(7)  # nothing left: a no-op
    assert [r["tid"] for r in log.scan()] == [8] and not log.records_of(7)


# ----------------------------------------------------------------------
# guard: no whole-log walk on the commit or abort path
# ----------------------------------------------------------------------

@pytest.fixture
def log_walks(monkeypatch):
    """Counts of ``scan`` / ``remove_where`` calls per transaction log."""
    walks = Counter()

    def counting(method):
        original = getattr(LogFile, method)

        def wrapper(self, *args):
            if self.name in ("coordinator", "prepare"):
                walks[self.name, method] += 1
            return original(self, *args)
        monkeypatch.setattr(LogFile, method, wrapper)

    counting("scan")
    counting("remove_where")
    return walks


def test_fault_free_multi_site_commits_never_walk_a_log(log_walks):
    cluster = Cluster(site_ids=(1, 2, 3))
    driver = ScalingDriver(cluster, record_count=512, mix="banking",
                           keys="zipf", theta=0.0, clients=8,
                           txns_per_client=2, think_mean=0.01, seed=5)
    driver.setup()
    result = driver.run()
    assert result.committed == 16 and result.aborted == 0
    assert cluster.network.stats.get("net.messages") > 0  # distributed
    assert not log_walks
    assert all(len(site.coordinator_log) == 0
               for site in cluster.sites.values())  # resolved and forgotten


def test_deadlock_aborts_never_walk_a_log(log_walks):
    cluster = Cluster(site_ids=(1, 2))
    for path, site_id in (("/x", 1), ("/y", 2)):
        drive(cluster.engine, cluster.create_file(path, site_id=site_id))
        drive(cluster.engine, cluster.populate(path, b"." * 100))

    def txn(first, second, delay):
        def prog(sys):
            yield from sys.sleep(delay)
            yield from sys.begin_trans()
            f1 = yield from sys.open(first, write=True)
            yield from sys.lock(f1, 10)
            yield from sys.write(f1, b"1" * 10)
            yield from sys.sleep(1.0)  # both hold their first lock
            f2 = yield from sys.open(second, write=True)
            yield from sys.lock(f2, 10)
            yield from sys.write(f2, b"2" * 10)
            yield from sys.end_trans()
        return prog

    survivor = cluster.spawn(txn("/x", "/y", 0.0), site_id=1)
    victim = cluster.spawn(txn("/y", "/x", 0.1), site_id=2)
    cluster.run()
    assert survivor.exit_status == "done"
    assert victim.failed and "deadlock" in str(victim.exit_value)
    assert not log_walks
