"""Transaction generation: config-driven mixes over skewed key spaces.

This is the workload side of the scaling engine (ROADMAP item 1): a
:class:`TxnGenerator` turns a transaction **mix** (weighted classes,
each a read/write shape) plus a **key-popularity** model from
:mod:`repro.workloads.randgen` into a reproducible stream of
:class:`~repro.workloads.records.AccessString`\\ s.  The stock mixes:

``banking``
    OLTP transfer/deposit/balance.  ``deposit`` is read-modify-write
    (shared-then-exclusive on the same record), the idiom that
    produces lock-upgrade deadlocks under skew; ``transfer`` writes
    two records in draw order, which produces ordering deadlocks.

``session``
    Read-heavy web session store: mostly point reads with an
    occasional read-modify-write refresh.

``logging``
    Append-heavy: each generator owns a private sequential cursor
    (disjoint per client when ``append_base`` values are spread), so
    writes are conflict-free while the occasional scan reads the
    popular head of the keyspace.

Everything is seeded per generator: client ``i`` built with
``seed=base+i`` replays its exact transaction stream on every run.
Arrival processes (open-loop Poisson, closed-loop think times) live in
:mod:`~repro.workloads.randgen`; the scaling driver in
:mod:`~repro.workloads.driver` connects both to the cluster.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.slo import SloObjective

from .randgen import make_keys
from .records import AccessString

__all__ = ["TxnClass", "TxnMix", "MIXES", "TxnGenerator"]


@dataclass(frozen=True)
class TxnClass:
    """One weighted transaction shape within a mix.

    ``rmw=True`` makes the written records the ones just read
    (read-modify-write: shared lock first, exclusive at write time).
    ``append=True`` draws writes from the generator's private
    sequential cursor instead of the popularity distribution.
    """

    name: str
    reads: int
    writes: int
    weight: float
    rmw: bool = False
    append: bool = False


@dataclass(frozen=True)
class TxnMix:
    """A named, weighted set of transaction classes.

    ``slos`` (a tuple of :class:`repro.slo.SloObjective`) declares
    the mix's service-level objectives; the scaling driver announces
    them (``mix.declare``) at run start for the SLO tracker, and the
    ``slo`` report section scores them as error-budget
    burn rates (docs/OBSERVABILITY.md, "SLOs and burn rates").
    """

    name: str
    classes: tuple
    slos: tuple = ()

    def __post_init__(self):
        if not self.classes:
            raise ValueError("a mix needs at least one class")
        if any(c.weight <= 0 for c in self.classes):
            raise ValueError("class weights must be positive")


#: The stock mixes (see module docstring).  Weights are fractions of
#: the transaction stream, normalized at draw time.  Each mix carries
#: its SLOs: the OLTP mix bounds commit latency and abort rate, the
#: session store bounds the client-visible latency (retries included),
#: and the append-only logging mix declares none -- its conflict-free
#: writes make every objective trivially green.
MIXES = {
    "banking": TxnMix("banking", (
        TxnClass("transfer", reads=0, writes=2, weight=0.50),
        TxnClass("deposit", reads=1, writes=1, weight=0.30, rmw=True),
        TxnClass("balance", reads=2, writes=0, weight=0.20),
    ), slos=(
        # Bounds calibrated on the scaling grid (analysis/scaling.py):
        # the 64-client reference cell holds both budgets, the knee
        # cells burn through them -- so the per-cell verdicts trace the
        # same saturation point the throughput curves show.
        SloObjective("commit.latency", bound=30.0, kind="latency",
                     percentile=99.0),
        SloObjective("abort.rate", bound=0.10, kind="rate"),
    )),
    "session": TxnMix("session", (
        TxnClass("get", reads=3, writes=0, weight=0.85),
        TxnClass("refresh", reads=1, writes=1, weight=0.15, rmw=True),
    ), slos=(
        SloObjective("client.latency", bound=8.0, kind="latency",
                     percentile=95.0),
    )),
    "logging": TxnMix("logging", (
        TxnClass("append", reads=0, writes=1, weight=0.90, append=True),
        TxnClass("scan", reads=4, writes=0, weight=0.10),
    )),
}


class TxnGenerator:
    """Seeded stream of (class name, AccessString) pairs.

    One generator per simulated client: a single :class:`random.Random`
    drives both the class choice and the key draws, so the whole client
    behaviour is a function of ``seed``.
    """

    def __init__(self, record_count, mix="banking", *, keys="zipf",
                 theta=0.9, hot_fraction=0.1, hot_weight=0.8,
                 seed=0, append_base=0):
        if isinstance(mix, str):
            mix = MIXES[mix]
        self.mix = mix
        self.record_count = record_count
        self._rng = random.Random(seed)
        self._keys = make_keys(keys, record_count, theta=theta,
                               hot_fraction=hot_fraction,
                               hot_weight=hot_weight, rng=self._rng)
        self._cursor = append_base % record_count
        cum = []
        total = 0.0
        for cls in mix.classes:
            total += cls.weight
            cum.append(total)
        self._cum = cum
        self._total = total

    def _choose_class(self) -> TxnClass:
        x = self._rng.random() * self._total
        for cls, bound in zip(self.mix.classes, self._cum):
            if x < bound:
                return cls
        return self.mix.classes[-1]

    def next_transaction(self):
        """The next (class name, :class:`AccessString`) pair.

        Reads and writes keep draw order (no sorting): the lock order a
        client actually uses is part of the workload, and unsorted
        write pairs are what make ordering deadlocks reachable.
        """
        cls = self._choose_class()
        sample = self._keys.sample
        reads = [sample() for _ in range(cls.reads)]
        if cls.append:
            writes = []
            cursor = self._cursor
            for _ in range(cls.writes):
                writes.append(cursor)
                cursor = (cursor + 1) % self.record_count
            self._cursor = cursor
        elif cls.rmw:
            writes = list(reads[:cls.writes])
            while len(writes) < cls.writes:
                writes.append(sample())
        else:
            writes = [sample() for _ in range(cls.writes)]
        return cls.name, AccessString(reads=reads, writes=writes)

    def transactions(self, count):
        """The next ``count`` (name, AccessString) pairs."""
        return [self.next_transaction() for _ in range(count)]
