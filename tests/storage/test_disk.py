"""Disk: timing, FIFO arm, categorized accounting, durability."""

import pytest

from repro.storage import Disk, IOCategory
from tests.conftest import drive


def test_write_then_read_round_trip(eng, cost):
    disk = Disk(eng, cost)

    def prog():
        yield from disk.write_block(7, b"hello")
        return (yield from disk.read_block(7))

    data = drive(eng, prog())
    assert data == b"hello"
    assert eng.now == pytest.approx(2 * cost.disk_io_time)


def test_unwritten_block_reads_zeros(eng, cost):
    disk = Disk(eng, cost)

    def prog():
        return (yield from disk.read_block(99))

    assert drive(eng, prog()) == bytes(cost.page_size)


def test_oversized_block_rejected(eng, cost):
    disk = Disk(eng, cost)

    def prog():
        yield from disk.write_block(1, b"x" * (cost.page_size + 1))

    with pytest.raises(ValueError):
        drive(eng, prog())


def test_io_accounting_by_category(eng, cost):
    disk = Disk(eng, cost)

    def prog():
        yield from disk.write_block(1, b"d", IOCategory.DATA_WRITE)
        yield from disk.write_block(2, b"i", IOCategory.INODE_WRITE)
        yield from disk.write_block(3, b"l", IOCategory.LOG_WRITE)
        yield from disk.read_block(1, IOCategory.DATA_READ)

    drive(eng, prog())
    s = disk.stats
    assert s.get(IOCategory.DATA_WRITE) == 1
    assert s.get(IOCategory.INODE_WRITE) == 1
    assert s.get(IOCategory.LOG_WRITE) == 1
    assert s.get(IOCategory.DATA_READ) == 1
    assert s.get("io.total") == 4
    assert s.total("io.write") == 3


def test_concurrent_requests_serialize_on_the_arm(eng, cost):
    disk = Disk(eng, cost)
    done = []

    def writer(tag):
        yield from disk.write_block(tag, b"x")
        done.append((tag, eng.now))

    for t in range(3):
        eng.process(writer(t))
    eng.run()
    times = [t for _tag, t in done]
    assert times == pytest.approx(
        [cost.disk_io_time, 2 * cost.disk_io_time, 3 * cost.disk_io_time]
    )


def test_free_block_erases_contents(eng, cost):
    disk = Disk(eng, cost)

    def prog():
        yield from disk.write_block(5, b"secret")
        disk.free_block(5)
        return (yield from disk.read_block(5))

    assert drive(eng, prog()) == bytes(cost.page_size)


def test_peek_is_synchronous_and_nonbilling(eng, cost):
    disk = Disk(eng, cost)

    def prog():
        yield from disk.write_block(1, b"abc")

    drive(eng, prog())
    before = disk.stats.get("io.total")
    assert disk.peek(1) == b"abc"
    assert disk.exists(1)
    assert not disk.exists(2)
    assert disk.stats.get("io.total") == before


# ----------------------------------------------------------------------
# faults: a request handed to the arm is not recalled
# ----------------------------------------------------------------------

def _three_writers(eng, disk):
    """Writers 0..2 issued at t=0: one in service, two queued."""
    def writer(tag):
        yield from disk.write_block(tag, b"w%d" % tag)
        return eng.now

    return [eng.process(writer(tag)) for tag in range(3)]


def _late_writer(eng, disk):
    def late():
        yield from disk.write_block(9, b"late")
        return eng.now

    return eng.process(late())


@pytest.mark.parametrize("stop", ["kill", "interrupt"])
@pytest.mark.parametrize("victim", [0, 1], ids=["in-service", "queued"])
def test_stopped_issuer_slot_elapses_and_installs_nothing(
        eng, cost, stop, victim):
    """The queued cases used to wedge the arm: the slot was handed to
    the dead waiter and never released."""
    io = cost.disk_io_time
    disk = Disk(eng, cost)
    procs = _three_writers(eng, disk)
    eng.run(until=io / 2)
    getattr(procs[victim], stop)()
    eng.run()
    survivors = [p for i, p in enumerate(procs) if i != victim]
    assert [p.state for p in survivors] == ["done", "done"]
    # The stopped request keeps its place and takes its service time.
    assert [p.value for p in survivors] == [
        (i + 1) * io for i in range(3) if i != victim]
    assert not disk.exists(victim)
    assert disk.stats.get("io.total") == 2
    assert disk._arm.outstanding == 0


def test_every_issuer_killed_then_a_new_request_is_served(eng, cost):
    """Site.crash kills a site's processes at one instant."""
    io = cost.disk_io_time
    disk = Disk(eng, cost)
    procs = _three_writers(eng, disk)
    eng.run(until=io / 2)
    for proc in procs:
        proc.kill()
    late = _late_writer(eng, disk)
    eng.run()
    # Without power_off the three requests still take their turns.
    assert late.state == "done" and late.value == 4 * io
    assert disk.block_count == 1 and disk.stats.get("io.total") == 1
    assert disk._arm.outstanding == 0


def test_power_off_drops_the_requests(eng, cost):
    io = cost.disk_io_time
    disk = Disk(eng, cost)
    procs = _three_writers(eng, disk)
    eng.run(until=io / 2)
    for proc in procs:
        proc.kill()
    disk.power_off()
    late = _late_writer(eng, disk)
    eng.run()
    assert late.value == io / 2 + io
    assert disk.peek(9) == b"late" and disk.block_count == 1
