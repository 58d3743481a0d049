"""Group-commit scheduler: batching, accounting, durability ordering."""

from repro.storage import LogFile, Volume
from repro.storage.disk import IOCategory
from repro.storage.groupcommit import GroupCommitScheduler
from tests.conftest import drive


def make(eng, cost):
    vol = Volume(eng, cost, vol_id=1)
    return vol, GroupCommitScheduler(eng, vol.disk, eng.process)


def run_all(eng, *generators):
    procs = [eng.process(g) for g in generators]
    eng.run()
    for proc in procs:
        if proc.failed:
            raise proc.value
    return procs


def blocks_for(name, unoptimized=False):
    blocks = [(("log", name, 0), b"", IOCategory.LOG_WRITE)]
    if unoptimized:
        blocks.append((("log-inode", name), b"", IOCategory.LOG_INODE_WRITE))
    return blocks


def test_solo_force_costs_exactly_the_unbatched_price(eng, cost):
    vol, sched = make(eng, cost)
    drive(eng, sched.force(blocks_for("a", unoptimized=True)))
    assert vol.stats.get("io.write.log") == 1
    assert vol.stats.get("io.write.log_inode") == 1
    assert vol.stats.total("io.coalesced") == 0


def test_concurrent_forces_share_one_physical_write(eng, cost):
    vol, sched = make(eng, cost)
    run_all(eng, *(sched.force(blocks_for("m%d" % i)) for i in range(5)))
    # Five logical forces, one physical log page.
    assert vol.stats.get("io.write.log") == 1
    assert vol.stats.get("io.write.log.coalesced") == 5
    assert vol.stats.get("io.coalesced") == 5


def test_batch_pays_inode_write_once_if_any_member_unoptimized(eng, cost):
    vol, sched = make(eng, cost)
    run_all(eng,
            sched.force(blocks_for("a", unoptimized=True)),
            sched.force(blocks_for("b", unoptimized=True)),
            sched.force(blocks_for("c")))
    assert vol.stats.get("io.write.log") == 1
    assert vol.stats.get("io.write.log_inode") == 1
    assert vol.stats.get("io.write.log.coalesced") == 3
    assert vol.stats.get("io.write.log_inode.coalesced") == 2


def test_absorbed_blocks_are_installed_on_disk(eng, cost):
    vol, sched = make(eng, cost)
    run_all(eng,
            sched.force([((7,), b"seven", IOCategory.LOG_WRITE)]),
            sched.force([((8,), b"eight", IOCategory.LOG_WRITE)]))
    assert vol.disk.peek((7,)) == b"seven"
    assert vol.disk.peek((8,)) == b"eight"


def test_late_force_joins_the_next_batch(eng, cost):
    """A force arriving after a batch's write started does not ride it:
    it forms (and waits for) the next batch."""
    vol, sched = make(eng, cost)

    def late():
        yield eng.timeout(cost.disk_io_time / 2)  # mid-first-write
        yield from sched.force(blocks_for("late"))

    run_all(eng, sched.force(blocks_for("a")), late())
    # Two batches, each solo: two physical writes, nothing coalesced.
    assert vol.stats.get("io.write.log") == 2
    assert vol.stats.total("io.coalesced") == 0


def test_logfile_append_is_durable_only_after_its_batch(eng, cost):
    """Concurrent LogFile appends through one scheduler share the
    physical write, and each entry lands only after its force."""
    vol = Volume(eng, cost, vol_id=1)
    sched = GroupCommitScheduler(eng, vol.disk, eng.process)
    log = LogFile(eng, cost, vol, name="prepare", optimized=True,
                  scheduler=sched)
    order = []

    def writer(tag):
        yield from log.append({"tid": tag})
        order.append((tag, eng.now, len(log)))

    run_all(eng, writer("T1"), writer("T2"), writer("T3"))
    assert [e["tid"] for e in log.entries()] == ["T1", "T2", "T3"]
    assert vol.stats.get("io.write.log") == 1
    assert vol.stats.get("io.write.log.coalesced") == 3
    # Every append observed a positive-time durable point, and none
    # returned before the shared physical write finished.
    for _tag, when, _n in order:
        assert when >= cost.disk_io_time


def test_a_killed_drain_drops_its_forming_batch(eng):
    """A crash kills the drain mid-send together with every member
    waiting on it; what was forming behind that send is dropped, so the
    first send after the reboot carries only what arrived after it."""
    from repro.storage.groupcommit import PiggybackPump

    sent = []

    def send(members):
        sent.append(list(members))
        yield eng.timeout(1.0)

    pump = PiggybackPump(eng, eng.process, send, "pump")
    pump.join("before")
    eng.run(until=0.5)
    pump.join("forming")
    pump._pump.kill()
    pump.join("after")
    eng.run()
    assert sent == [["before"], ["after"]]
