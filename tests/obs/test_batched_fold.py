"""The batched sample path equals the per-sample one, bit for bit.

``MetricsHub.observe`` appends each sample to its sketch's buffer and
folds the buffer in with ``QuantileSketch.extend``.  These differentials
hold that path against ``QuantileSketch.observe`` on each sample in
turn: zeros, repeated values and ints; reads between partial batches; a
``max_buckets`` small enough that the sketch collapses in mid-batch;
and a stream whose left-to-right sum differs from a compensated one,
so a builtin ``sum()`` (Neumaier summation from CPython 3.12) fails.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import BATCH, MetricsHub
from repro.obs.sketch import QuantileSketch

# Latency-like samples with many repeats, exact zeros, values below the
# zero-bucket floor, and ints.
_value = st.one_of(
    st.sampled_from((0.0, 0.0, 1e-13, 0.026, 0.026, 0.052, 1.0, 3)),
    st.integers(0, 50),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
              allow_infinity=False),
)


def _observed(values, **kwargs):
    sketch = QuantileSketch(**kwargs)
    for value in values:
        sketch.observe(value)
    return sketch


def _folded(values, cuts, **kwargs):
    """``values`` folded in batches split at ``cuts``."""
    sketch = QuantileSketch(**kwargs)
    start = 0
    for cut in sorted(cuts) + [len(values)]:
        sketch.extend([float(v) for v in values[start:cut]])
        start = max(start, cut)
    return sketch


def _same(a, b):
    # repr, not ==: an int where a float belongs is a different report.
    assert repr(a.to_summary()) == repr(b.to_summary())
    assert (a.sum.hex(), a.collapsed) == (b.sum.hex(), b.collapsed)


@settings(max_examples=300, deadline=None)
@given(st.lists(_value, max_size=300), st.lists(st.integers(0, 300),
                                                 max_size=6))
def test_extend_equals_observing_each_sample(values, cuts):
    _same(_folded(values, cuts), _observed(values))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
                min_size=1, max_size=200),
       st.lists(st.integers(0, 200), max_size=4))
def test_extend_collapses_where_one_sample_at_a_time_would(values, cuts):
    # Eight buckets: the stream collapses, often more than once, and in
    # the middle of a batch.
    _same(_folded(values, cuts, max_buckets=8),
          _observed(values, max_buckets=8))


def test_the_sum_is_added_left_to_right():
    values = [1e16, 1.0, 1.0]
    left_to_right = 0.0
    for value in values:
        left_to_right += value
    # A compensated sum (what builtin sum() does from CPython 3.12)
    # keeps the two ones that one-at-a-time addition rounds away.
    assert math.fsum(values) != left_to_right
    folded = _folded(values, [])
    assert folded.sum == left_to_right == _observed(values).sum
    hub = MetricsHub()
    for value in values:
        hub.observe(1, "x", value)
    assert hub.sketch(1, "x").sum == left_to_right


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from((1, 2, None)),
                          st.sampled_from(("a", "b")),
                          st.sampled_from((None, "m", "n")), _value,
                          st.booleans()),
                max_size=3 * BATCH))
def test_hub_equals_per_sample_sketches_with_reads_between(samples):
    """Samples spread over sites, names and mixes, some tagged, with a
    read after some of them: every sketch the hub reports equals one
    that observed its samples one at a time."""
    hub = MetricsHub()
    expected, by_mix = {}, {}
    for site, name, mix, value, read in samples:
        hub.observe(site, name, value, mix)
        key = ("-" if site is None else str(site), name)
        expected.setdefault(key, QuantileSketch()).observe(value)
        if mix is not None:
            by_mix.setdefault((key[0], mix, name),
                              QuantileSketch()).observe(value)
        if read:
            assert hub.sketch(site, name).count == expected[key].count
    assert repr(hub.by_site()) == repr(_nested(
        {(site, None, name): s for (site, name), s in expected.items()},
        by_mix=False))
    assert repr(hub.sketches_by_site()) == repr(_nested(by_mix))


def _nested(sketches, by_mix=True):
    """The hub's report layout of ``{(site, mix, name): sketch}``."""
    out = {}
    for (site, mix, name), sketch in sorted(
            sketches.items(), key=lambda kv: (kv[0][0], str(kv[0][1]),
                                              kv[0][2])):
        entry = out.setdefault(site, {})
        if by_mix:
            entry = entry.setdefault(mix, {})
        entry[name] = sketch.to_summary()
    return out
