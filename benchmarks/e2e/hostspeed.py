"""How fast is the host right now?

The reference box is a shared microVM: its speed drifts by 10-20 % over
minutes (no steal time shows, CPU seconds drift with wall seconds), so
every pass of a run can sit in one slow spell and no number of repeats
inside the run finds the quiet one.  The benchmark therefore times a
fixed piece of work -- :func:`kernel` -- before and after everything it
measures on the host clock and reports host seconds *at reference
speed*: measured seconds x ``REFERENCE_S`` / the kernel's seconds then.

The kernel is a miniature of what the simulator makes CPython do (a
heap of timed events resuming generator processes that scan a list of
range records, count in a dict and compare tuples) and is deliberately
*not* built from ``src/``: a change that speeds the simulator up must
not speed the yardstick up with it.  Do not edit it either; a changed
kernel is a changed unit, and every earlier ``wall_s`` stops being
comparable.
"""

from __future__ import annotations

import heapq
from time import perf_counter

__all__ = ["REFERENCE_S", "CHECKSUM", "kernel", "kernel_seconds",
           "at_reference_speed"]

#: The kernel's fastest time on the reference box (README, "Baseline"),
#: so that reference-speed seconds read as that box's quiet seconds.
REFERENCE_S = 0.0800

#: What :func:`kernel` returns; anything else means it was edited.
CHECKSUM = 450214


class _Record:
    __slots__ = ("holder", "start", "end")

    def __init__(self, holder, start, end):
        self.holder = holder
        self.start = start
        self.end = end


def _process(pid, steps, table, pages, hits):
    x = pid * 2654435761 % 4093
    for _step in range(steps):
        x = (x * 1103515245 + 12345) % 2147483648
        start = x % 4096
        for record in table:
            if (record.start < start + 16 and start < record.end
                    and record.holder != pid):
                hits[0] += 1
        table.append(_Record(pid, start, start + 16))
        if len(table) > 96:
            del table[0]
        page = (pid & 3, start >> 4)
        pages[page] = pages.get(page, 0) + 1
        yield (x % 97) / 1000.0


def _delegate(pid, steps, table, pages, hits):
    yield from _process(pid, steps, table, pages, hits)


def kernel() -> int:
    """The fixed work (64 processes x 320 steps, about 80 ms); returns
    a checksum of what it computed."""
    heap, table, pages, hits = [], [], {}, [0]
    for pid in range(64):
        heap.append((0.0, pid, _delegate(pid, 320, table, pages, hits)))
    seq = len(heap)
    while heap:
        now, _, process = heapq.heappop(heap)
        try:
            delay = process.send(None)
        except StopIteration:
            continue
        heapq.heappush(heap, (now + delay, seq, process))
        seq += 1
    return hits[0] * 31 + len(pages)


def kernel_seconds() -> float:
    started = perf_counter()
    if kernel() != CHECKSUM:
        raise AssertionError("hostspeed.kernel was edited: wall_s and "
                             "setup_s are no longer comparable")
    return perf_counter() - started


def at_reference_speed(seconds, kernel_before, kernel_after) -> float:
    """``seconds`` measured between two kernel timings, scaled to the
    speed at which the kernel takes ``REFERENCE_S``."""
    return seconds * REFERENCE_S / ((kernel_before + kernel_after) / 2.0)
