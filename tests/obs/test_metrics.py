"""MetricsHub unit behaviour: per-(site, name) sketches and counters."""

import pytest

from repro.obs import MetricsHub
from repro.obs.sketch import QuantileSketch


def test_exact_stats_and_degenerate_percentiles():
    hub = MetricsHub()
    for _ in range(10):
        hub.observe(1, "lock.wait", 0.025)
    s = hub.by_site()["1"]["lock.wait"]
    assert s["count"] == 10
    assert s["sum"] == pytest.approx(0.25)
    assert s["min"] == s["max"] == 0.025
    # All-equal samples must report the exact value, not a bucket edge.
    assert s["p50"] == s["p95"] == s["p99"] == s["p999"] == 0.025


def test_percentiles_are_ordered_and_bounded():
    hub = MetricsHub()
    for i in range(1, 101):
        hub.observe(1, "rpc.rtt", i / 1000.0)  # 1ms .. 100ms
    s = hub.by_site()["1"]["rpc.rtt"]
    assert s["min"] <= s["p50"] <= s["p95"] <= s["p99"] <= s["max"]
    # Within the sketch's relative error of the exact sample at the rank.
    for key, exact in (("p50", 0.050), ("p95", 0.095), ("p99", 0.099)):
        assert s[key] == pytest.approx(exact, rel=s["rel_err"])


def test_zero_samples_fall_in_first_bucket():
    hub = MetricsHub()
    hub.observe(1, "lock.wait", 0.0)
    sketch = hub.sketch(1, "lock.wait")
    assert sketch.zeros == 1 and not sketch.buckets
    assert sketch.percentile(99) == 0.0


def test_merge_folds_counts_and_extremes():
    hub = MetricsHub()
    hub.observe(1, "lock.wait", 0.001)
    hub.observe(2, "lock.wait", 0.5)
    hub.observe(2, "lock.wait", 0.002)
    merged = hub.merged("lock.wait")
    assert merged.count == 3
    assert merged.min == 0.001
    assert merged.max == 0.5
    assert sum(merged.buckets.values()) == 3


def test_merge_empty_into_full_and_back():
    full, empty = QuantileSketch(), QuantileSketch()
    full.observe(0.004)
    full.observe(0.2)

    full.merge(empty)                      # no-op
    assert full.count == 2
    assert (full.min, full.max) == (0.004, 0.2)

    empty.merge(full)                      # adopts everything
    assert empty.count == 2
    assert (empty.min, empty.max) == (0.004, 0.2)
    assert empty.sum == full.sum
    assert empty.buckets == full.buckets

    both = QuantileSketch()
    both.merge(QuantileSketch())           # empty + empty stays empty
    assert both.count == 0 and both.min is None and both.max is None


def test_merge_preserves_summary_consistency():
    hub = MetricsHub()
    for i in range(50):
        hub.observe(1, "disk.io", 0.001 * (i + 1))
        hub.observe(2, "disk.io", 0.002 * (i + 1))
    s = hub.merged("disk.io").to_summary()
    assert sum(s["buckets"].values()) + s["zeros"] == s["count"] == 100
    assert s["min"] <= s["p50"] <= s["p95"] <= s["p99"] <= s["max"]


def test_merged_returns_none_for_unseen_name():
    hub = MetricsHub()
    hub.observe(1, "lock.wait", 0.1)
    assert hub.merged("no.such.metric") is None
    assert hub.merged("lock.wait", mix="banking") is None


def test_hub_keys_sites_and_names():
    hub = MetricsHub()
    hub.observe(1, "lock.wait", 0.1)
    hub.observe(1, "lock.wait", 0.2)
    hub.observe(2, "lock.wait", 0.3)
    hub.observe(None, "disk.io", 0.01)
    assert hub.sketch(1, "lock.wait").count == 2
    assert hub.sketch(3, "lock.wait") is None
    merged = hub.merged("lock.wait")
    assert merged.count == 3
    assert merged.max == 0.3
    by_site = hub.by_site()
    assert sorted(by_site) == ["-", "1", "2"]
    assert sorted(by_site["1"]) == ["lock.wait"]
    assert by_site["1"]["lock.wait"]["count"] == 2
    assert by_site["-"]["disk.io"]["count"] == 1
