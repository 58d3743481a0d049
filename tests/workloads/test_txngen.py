"""Property tests for the scaling workload generators.

The scaling report's numbers are only meaningful if the workload
underneath is what it claims to be, so these tests pin the statistical
and determinism contracts: fixed-seed streams replay exactly, Zipf
empirical frequencies match the analytic pmf, open-loop gaps average
1/rate, and a closed-loop run never has more transactions in flight
than clients.
"""

import random

import pytest

from repro import Cluster
from repro.config import SystemConfig
from repro.workloads import (MIXES, PoissonArrivals, ScalingDriver,
                             ThinkTimes, TxnGenerator, ZipfKeys, make_keys)
from repro.workloads import randgen


# ----------------------------------------------------------------------
# fixed-seed determinism
# ----------------------------------------------------------------------

def _stream(seed, count=200, **kw):
    gen = TxnGenerator(512, "banking", seed=seed, **kw)
    return [(name, tuple(txn.reads), tuple(txn.writes))
            for name, txn in gen.transactions(count)]


def test_same_seed_replays_identical_stream():
    assert _stream(42) == _stream(42)


def test_different_seeds_diverge():
    assert _stream(42) != _stream(43)


def test_stream_is_independent_of_cdf_cache_state():
    """A warm shared Zipf table must not change the sampled stream."""
    randgen._CDF_CACHE.clear()
    cold = _stream(7, theta=0.77)
    warm = _stream(7, theta=0.77)  # second call hits the cache
    assert cold == warm
    randgen._CDF_CACHE.clear()


def test_shared_cdf_table_is_bit_identical_to_fresh():
    randgen._CDF_CACHE.clear()
    first = ZipfKeys(300, theta=0.9, seed=0)
    second = ZipfKeys(300, theta=0.9, seed=0)
    assert second._cum is first._cum  # shared, not recomputed
    randgen._CDF_CACHE.clear()
    fresh = ZipfKeys(300, theta=0.9, seed=0)
    assert fresh._cum == first._cum
    assert fresh._total == first._total
    randgen._CDF_CACHE.clear()


# ----------------------------------------------------------------------
# key-popularity distributions
# ----------------------------------------------------------------------

def test_zipf_empirical_matches_analytic_pmf():
    """Observed rank frequencies track ZipfKeys.pmf within sampling
    noise (binomial std dev) on the head of the distribution."""
    n, draws = 64, 40_000
    keys = ZipfKeys(n, theta=0.9, seed=5)
    counts = [0] * n
    for _ in range(draws):
        counts[keys.sample()] += 1
    assert sum(keys.pmf(k) for k in range(n)) == pytest.approx(1.0)
    for k in range(8):  # the hot head, where frequencies are testable
        p = keys.pmf(k)
        sigma = (draws * p * (1 - p)) ** 0.5
        assert abs(counts[k] - draws * p) < 5 * sigma
    # Monotone head: rank 0 strictly hotter than rank 8.
    assert counts[0] > counts[8]


def test_zipf_theta_zero_is_uniform():
    keys = ZipfKeys(16, theta=0.0, seed=9)
    for k in range(16):
        assert keys.pmf(k) == pytest.approx(1.0 / 16)


@pytest.mark.parametrize("kind", ["pareto", "hotspot", "uniform"])
def test_make_keys_rejects_unknown_kind(kind):
    with pytest.raises(ValueError):
        make_keys(kind, 16)


# ----------------------------------------------------------------------
# arrival processes
# ----------------------------------------------------------------------

def test_openloop_mean_gap_is_one_over_rate():
    rate, draws = 50.0, 20_000
    arr = PoissonArrivals(rate, seed=3)
    gaps = [arr.next_gap() for _ in range(draws)]
    mean = sum(gaps) / draws
    # Exponential mean has std error (1/rate)/sqrt(n): 5 sigma bound.
    assert abs(mean - 1.0 / rate) < 5 * (1.0 / rate) / draws ** 0.5
    assert min(gaps) > 0.0


def test_openloop_times_are_strictly_increasing():
    times = PoissonArrivals(200.0, seed=11).times(1_000)
    assert len(times) == 1_000
    assert all(b > a for a, b in zip(times, times[1:]))


def test_think_times_mean_and_zero_mode():
    think = ThinkTimes(0.2, seed=1)
    draws = [think.next_think() for _ in range(20_000)]
    mean = sum(draws) / len(draws)
    assert abs(mean - 0.2) < 5 * 0.2 / len(draws) ** 0.5
    assert ThinkTimes(0.0, seed=1).next_think() == 0.0


# ----------------------------------------------------------------------
# mixes
# ----------------------------------------------------------------------

def test_class_frequencies_track_mix_weights():
    gen = TxnGenerator(256, "banking", seed=13)
    draws = 20_000
    seen = {}
    for name, _txn in gen.transactions(draws):
        seen[name] = seen.get(name, 0) + 1
    total_weight = sum(c.weight for c in MIXES["banking"].classes)
    for cls in MIXES["banking"].classes:
        p = cls.weight / total_weight
        sigma = (draws * p * (1 - p)) ** 0.5
        assert abs(seen.get(cls.name, 0) - draws * p) < 5 * sigma


def test_rmw_writes_are_the_records_read():
    gen = TxnGenerator(256, "banking", seed=17)
    deposits = [txn for name, txn in gen.transactions(2_000)
                if name == "deposit"]
    assert deposits
    for txn in deposits:
        assert txn.writes == txn.reads[:len(txn.writes)]


def test_append_mix_writes_sequential_private_cursor():
    gen = TxnGenerator(128, "logging", seed=19, append_base=32)
    writes = []
    for name, txn in gen.transactions(400):
        if name == "append":
            writes.extend(txn.writes)
    assert writes[:3] == [32, 33, 34]
    for a, b in zip(writes, writes[1:]):
        assert b == (a + 1) % 128


# ----------------------------------------------------------------------
# closed-loop concurrency bound
# ----------------------------------------------------------------------

class _GaugedDriver(ScalingDriver):
    """ScalingDriver that gauges in-flight transactions."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.inflight = 0
        self.max_inflight = 0

    def _one_txn(self, sysc, fds, txn, note=None):
        self.inflight += 1
        self.max_inflight = max(self.max_inflight, self.inflight)
        try:
            yield from super()._one_txn(sysc, fds, txn, note)
        finally:
            self.inflight -= 1


def test_closed_loop_concurrency_never_exceeds_clients():
    cluster = Cluster(site_ids=(1,),
                      config=SystemConfig(rpc_timeout=30.0,
                                          commit_batching=True))
    driver = _GaugedDriver(cluster, record_count=256, mix="banking",
                           keys="zipf", theta=0.9, clients=12,
                           txns_per_client=3, arrival="closed",
                           think_mean=0.01, seed=2)
    driver.setup()
    result = driver.run()
    assert 0 < driver.max_inflight <= 12
    assert result.committed + result.aborted == 12 * 3
    assert len(result.latencies) == result.committed


def test_open_loop_runs_the_same_budget_as_jobs():
    cluster = Cluster(site_ids=(1,),
                      config=SystemConfig(rpc_timeout=30.0,
                                          commit_batching=True))
    driver = ScalingDriver(cluster, record_count=256, mix="session",
                           keys="zipf", theta=0.9, clients=8,
                           txns_per_client=2, arrival="open", seed=4)
    driver.setup()
    result = driver.run()
    assert result.committed + result.aborted == 8 * 2


def test_scaling_run_is_seed_deterministic():
    def run():
        cluster = Cluster(site_ids=(1, 2),
                          config=SystemConfig(rpc_timeout=30.0,
                                              commit_batching=True))
        driver = ScalingDriver(cluster, record_count=256, mix="banking",
                               keys="zipf", theta=0.9, clients=16,
                               txns_per_client=2, arrival="closed",
                               think_mean=0.02, seed=6)
        driver.setup()
        return driver.run().stats()

    assert run() == run()
