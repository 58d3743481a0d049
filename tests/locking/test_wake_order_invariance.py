"""Grant-order invariance of the range-indexed waiter wake-up.

The manager re-examines only waiters whose ranges overlap the bytes the
lock table changed under.  The claim (see the module docstring of
repro.locking.manager): this produces exactly the grant order of the
naive algorithm that rescans the whole FIFO queue to a fixpoint after
every change.  Here the naive algorithm is run for real, as a manager
subclass, against the indexed one on identical randomized scripts.

The same scripts check the scan-free wait-for export: after every lock
and unlock, and at every poll, each queued request's remembered
blockers are either marked stale or equal to a fresh conflict check,
and ``wait_edges()`` / ``wait_edge_details()`` equal a from-scratch
recomputation over the queues.
"""

import random

import pytest

from repro.config import CostModel
from repro.locking import LockManager, LockMode
from repro.sim import Engine

F1, F2 = (1, 1), (1, 2)


class NaiveLockManager(LockManager):
    """The pre-index algorithm: full FIFO rescan to a fixpoint."""

    def _wake_waiters(self, file_id, changed=None):
        queue = self._queues.get(file_id)
        if not queue:
            return
        table = self.table(file_id)
        progressed = True
        while progressed:
            progressed = False
            for waiter in list(queue):
                waiter.blockers = table.conflicts(
                    waiter.holder, waiter.mode, waiter.start, waiter.end)
                if waiter.blockers:
                    continue
                self._remove_waiter(waiter)
                self._do_grant(file_id, waiter.holder, waiter.mode,
                               waiter.start, waiter.end, waiter.nontrans)
                if not waiter.event.triggered:
                    waiter.event.succeed(True)
                progressed = True


def scratch_wait_state(mgr):
    """Wait-for edges and edge details recomputed from the queues and
    tables alone, after checking every remembered blocker list against
    the same recomputation."""
    edges, details = set(), []
    for file_id, queue in mgr._queues.items():
        for waiter in queue:
            fresh = mgr.table(file_id).conflicts(
                waiter.holder, waiter.mode, waiter.start, waiter.end)
            assert fresh, "a queued request the table admits"
            assert waiter.blockers is None or waiter.blockers == fresh
            for blocker in fresh:
                edges.add((waiter.holder, blocker))
                details.append((waiter.holder, blocker, file_id,
                                waiter.start, waiter.end, waiter.seq))
    details.sort(key=lambda d: (str(d[2]), d[5], d[0], d[1]))
    return sorted(edges), details


def check_wait_state(mgr):
    edges, details = scratch_wait_state(mgr)
    assert mgr.wait_edge_details() == details
    assert mgr.wait_edges() == edges
    return edges


def run_script(manager_cls, seed, nworkers=6, rounds=10):
    """Randomized contended lock/unlock traffic; returns the grant log,
    periodic wait-edge snapshots, and the final virtual time."""
    eng = Engine()
    mgr = manager_cls(eng, CostModel())
    rng = random.Random(seed)
    grants = []
    snapshots = []

    def worker(holder):
        for _ in range(rounds):
            file_id = F1 if rng.random() < 0.7 else F2
            mode = LockMode.SHARED if rng.random() < 0.3 else LockMode.EXCLUSIVE
            if rng.random() < 0.15:
                # Wide range: spans every stretch of the waiter index.
                start = rng.randrange(0, 4096)
                end = start + 300000
            else:
                start = rng.randrange(0, 2000)
                end = start + rng.randrange(1, 200)
            yield eng.timeout(rng.random() * 0.01)
            yield from mgr.lock(file_id, holder, mode, start, end)
            grants.append((holder, file_id, mode.name, start, end,
                           round(eng.now, 9)))
            check_wait_state(mgr)
            yield eng.timeout(rng.random() * 0.01)
            yield from mgr.unlock(file_id, holder, start, end, two_phase=False)
            check_wait_state(mgr)

    def monitor():
        for _ in range(60):
            yield eng.timeout(0.01)
            snapshots.append(tuple(check_wait_state(mgr)))

    for i in range(nworkers):
        eng.process(worker(("txn", i + 1)), name="w%d" % i)
    eng.process(monitor(), name="monitor")
    eng.run()
    return grants, snapshots, eng.now


@pytest.mark.parametrize("seed", [1, 7, 42, 1985])
def test_indexed_wakeup_matches_naive_rescan(seed):
    naive = run_script(NaiveLockManager, seed)
    indexed = run_script(LockManager, seed)
    assert indexed[0] == naive[0]  # identical grant log, in order
    assert indexed[1] == naive[1]  # identical wait-for snapshots
    assert indexed[2] == naive[2]  # identical final virtual time


def test_indexed_wakeup_leaves_no_stale_index_entries():
    _grants, _snaps, _now = run_script(LockManager, seed=3)
    eng = Engine()
    mgr = LockManager(eng, CostModel())

    def holder():
        yield from mgr.lock(F1, ("txn", 1), LockMode.EXCLUSIVE, 0, 100)
        yield eng.timeout(0.5)
        yield from mgr.unlock(F1, ("txn", 1), 0, 100, two_phase=False)

    def waiter():
        yield eng.timeout(0.1)
        yield from mgr.lock(F1, ("txn", 2), LockMode.EXCLUSIVE, 50, 80)

    eng.process(holder())
    eng.process(waiter())
    eng.run()
    assert not mgr.waiters(F1)
    assert not mgr._ranges[F1]
    assert not mgr._holder_waits
