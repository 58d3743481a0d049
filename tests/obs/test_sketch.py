"""The quantile sketch: relative-error guarantee, exact merge, and
JSON round-trip.

The property tests are the sketch's contract: for any stream and any
quantile, the reported value is within ``rel_err`` of the exact
sorted-sample quantile at that rank.  That is the bound every report
percentile -- the per-site ``sites`` summaries, the per-mix
``sketches`` section and scaling tails, the tail sampler's
slowest-percentile threshold -- relies on.
"""

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MetricsHub
from repro.obs.sketch import QuantileSketch

# Latency-like positive samples spanning microseconds to hours.
_samples = st.lists(
    st.floats(min_value=1e-6, max_value=1e4,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=400,
)

_QUANTILES = (0.01, 0.10, 0.50, 0.90, 0.95, 0.99, 0.999, 1.0)


def _exact_quantile(values, q):
    """The exact sorted-sample quantile at the sketch's rank rule."""
    ordered = sorted(values)
    rank = max(1, int(math.ceil(q * len(ordered) - 1e-9)))
    return ordered[rank - 1]


# ----------------------------------------------------------------------
# the relative-error guarantee
# ----------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(values=_samples)
def test_quantiles_within_relative_error_of_exact(values):
    sketch = QuantileSketch(rel_err=0.005)
    for v in values:
        sketch.observe(v)
    for q in _QUANTILES:
        exact = _exact_quantile(values, q)
        got = sketch.quantile(q)
        assert abs(got - exact) <= sketch.rel_err * exact + 1e-15, (
            "q=%g: got %r, exact %r" % (q, got, exact))


@settings(max_examples=100, deadline=None)
@given(values=_samples,
       rel_err=st.sampled_from((0.001, 0.005, 0.01, 0.05)))
def test_guarantee_holds_across_rel_err_settings(values, rel_err):
    sketch = QuantileSketch(rel_err=rel_err)
    for v in values:
        sketch.observe(v)
    for q in (0.5, 0.95, 0.999):
        exact = _exact_quantile(values, q)
        assert abs(sketch.quantile(q) - exact) <= rel_err * exact + 1e-15


def test_zero_samples_land_in_the_zero_bucket_exactly():
    sketch = QuantileSketch()
    for v in (0.0, 0.0, 0.0, 2.0):
        sketch.observe(v)
    assert sketch.zeros == 3
    assert sketch.quantile(0.5) == 0.0
    assert sketch.quantile(1.0) == pytest.approx(2.0, rel=0.005)
    assert sketch.min == 0.0 and sketch.max == 2.0


def test_all_equal_samples_report_that_exact_value():
    sketch = QuantileSketch()
    for _ in range(100):
        sketch.observe(0.125)
    # Clamped to the exact observed [min, max].
    for q in (0.01, 0.5, 0.999):
        assert sketch.quantile(q) == 0.125


# ----------------------------------------------------------------------
# exact merge + lossless JSON round-trip
# ----------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(a=_samples, b=_samples)
def test_merge_equals_sketch_of_concatenated_streams(a, b):
    left = QuantileSketch()
    right = QuantileSketch()
    both = QuantileSketch()
    for v in a:
        left.observe(v)
        both.observe(v)
    for v in b:
        right.observe(v)
        both.observe(v)
    left.merge(right)
    assert left.buckets == both.buckets
    assert left.zeros == both.zeros
    assert left.count == both.count
    assert left.sum == pytest.approx(both.sum)
    assert left.min == both.min and left.max == both.max
    for q in _QUANTILES:
        assert left.quantile(q) == both.quantile(q)


@settings(max_examples=100, deadline=None)
@given(values=_samples)
def test_summary_round_trip_is_lossless_through_json(values):
    sketch = QuantileSketch()
    for v in values:
        sketch.observe(v)
    wire = json.loads(json.dumps(sketch.to_summary()))
    back = QuantileSketch.from_summary(wire)
    assert back.buckets == sketch.buckets
    assert back.count == sketch.count
    assert back.zeros == sketch.zeros
    assert back.min == sketch.min and back.max == sketch.max
    for q in _QUANTILES:
        assert back.quantile(q) == sketch.quantile(q)
    # Round-tripped sketches merge exactly like live ones.
    merged = QuantileSketch.from_summary(wire)
    merged.merge(back)
    assert merged.count == 2 * sketch.count


def test_merge_rejects_mismatched_gamma():
    with pytest.raises(ValueError):
        QuantileSketch(rel_err=0.005).merge(QuantileSketch(rel_err=0.01))


def test_collapse_bounds_memory_and_keeps_the_upper_tail():
    """Force a collapse: bucket count stays bounded, the collapsed
    samples are accounted, and the high quantiles stay within bound."""
    sketch = QuantileSketch(rel_err=0.01, max_buckets=8)
    values = [1e-5 * (1.5 ** i) for i in range(40)]
    for v in values:
        sketch.observe(v)
    assert len(sketch.buckets) <= 8
    assert sketch.collapsed > 0
    assert sketch.count == len(values)
    # The top of the distribution survives collapse untouched.
    exact = _exact_quantile(values, 0.999)
    assert abs(sketch.quantile(0.999) - exact) <= 0.01 * exact


# ----------------------------------------------------------------------
# MetricsHub integration: per-(site, mix, metric) keying + report loading
# ----------------------------------------------------------------------

def test_hub_keys_sketches_by_site_mix_metric():
    hub = MetricsHub()
    hub.observe(1, "commit.latency", 0.010, mix="banking")
    hub.observe(2, "commit.latency", 0.020, mix="banking")
    hub.observe(1, "commit.latency", 0.500, mix="session")
    hub.observe(1, "commit.latency", 0.030)  # untagged: per-site only
    assert hub.mixes() == ["banking", "session"]
    assert hub.sketch(1, "commit.latency", "banking").count == 1
    assert hub.sketch(2, "commit.latency", "banking").count == 1
    assert hub.sketch(1, "commit.latency", "session").count == 1
    assert hub.sketch(1, "commit.latency", "logging") is None
    merged = hub.merged("commit.latency", mix="banking")
    assert merged.count == 2
    # The per-site sketches saw every sample, tagged or not.
    assert hub.merged("commit.latency").count == 4
    assert hub.sketch(1, "commit.latency").count == 3


def test_hub_load_sketches_merges_report_sections_exactly():
    a, b = MetricsHub(), MetricsHub()
    rng = random.Random(3)
    for _ in range(200):
        a.observe(1, "client.latency", rng.expovariate(10.0), mix="banking")
        b.observe(2, "client.latency", rng.expovariate(2.0), mix="banking")
    target = MetricsHub()
    for hub in (a, b):
        target.load(json.loads(json.dumps({
            "sites": hub.by_site(), "sketches": hub.sketches_by_site(),
        })))
    for mix in ("banking", None):
        merged = target.merged("client.latency", mix=mix)
        direct = a.merged("client.latency", mix=mix)
        direct.merge(b.merged("client.latency", mix=mix))
        assert merged.buckets == direct.buckets
        assert merged.count == direct.count == 400
        for q in _QUANTILES:
            assert merged.quantile(q) == direct.quantile(q)

