"""Mergeable relative-error quantile sketches (DDSketch-style).

Every latency percentile the reports print comes from here.  Fixed
ratio-2 buckets are too coarse even at p50 (an interpolation inside a
bucket that spans a factor of two in latency); this is the standard
fleet-telemetry answer -- a sketch with *relative-error* geometric
buckets (gamma = (1 + alpha) / (1 - alpha)), so every reported quantile
is within ``rel_err`` of the true sample value, at any sample count,
in constant memory.

Three properties carry the scaling story:

* **constant memory** -- buckets are a sparse dict of geometric
  indexes; when more than ``max_buckets`` distinct indexes exist, the
  lowest (cheapest-to-lose: the interesting quantiles are high) are
  collapsed into the lowest surviving bucket and counted in
  ``collapsed``;
* **exact merge** -- two sketches with the same ``gamma`` merge by
  bucket-count addition, so the scenario-matrix runner's cross-process
  folds are exactly the sketch of the concatenated
  streams (as long as neither side collapsed, which the default
  ``max_buckets`` makes practically unreachable);
* **lossless JSON round-trip** -- :meth:`to_summary` /
  :meth:`from_summary` preserve every bucket count plus the exact
  count/sum/min/max.

Like everything in :mod:`repro.obs`, recording is pure bookkeeping:
no virtual time, no engine events.
"""

from __future__ import annotations

import math
from collections import Counter

__all__ = ["QuantileSketch"]

#: Values at or below this magnitude land in the dedicated zero bucket
#: (log-indexing needs a positive floor; simulated latencies of exactly
#: 0.0 do occur for purely local operations).
_TINY = 1e-12


class QuantileSketch:
    """A mergeable quantile sketch with bounded relative error.

    ``rel_err`` is the guarantee: for any quantile ``q`` the returned
    value ``v_hat`` satisfies ``|v_hat - v| <= rel_err * v`` where ``v``
    is the exact sample at that rank (for positive, uncollapsed
    samples).  ``max_buckets`` bounds memory; the default is generous
    enough that simulated-latency streams never collapse.
    """

    __slots__ = ("rel_err", "gamma", "_log_gamma", "max_buckets",
                 "buckets", "zeros", "count", "sum", "min", "max",
                 "collapsed")

    def __init__(self, rel_err=0.005, max_buckets=2048):
        if not 0.0 < rel_err < 1.0:
            raise ValueError("rel_err must be in (0, 1)")
        if max_buckets < 8:
            raise ValueError("max_buckets must be at least 8")
        self.rel_err = float(rel_err)
        self.gamma = (1.0 + self.rel_err) / (1.0 - self.rel_err)
        self._log_gamma = math.log(self.gamma)
        self.max_buckets = int(max_buckets)
        self.buckets = {}   # geometric index -> count
        self.zeros = 0      # samples <= _TINY
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None
        self.collapsed = 0  # samples folded across bucket boundaries

    # -- recording ------------------------------------------------------

    def _index(self, value):
        """Geometric bucket index: bucket ``i`` covers
        ``(gamma**(i-1), gamma**i]``."""
        return int(math.ceil(math.log(value) / self._log_gamma - 1e-12))

    def observe(self, value):
        """Record one non-negative sample."""
        value = float(value)
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value <= _TINY:
            self.zeros += 1
            return
        index = self._index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1
        if len(self.buckets) > self.max_buckets:
            self._collapse()

    def extend(self, values):
        """Record the floats ``values`` in order: exactly what
        :meth:`observe` on each in turn records -- the same count, sum
        (added left to right, one float at a time), min, max, zeros,
        buckets and collapses -- computing one bucket index per
        distinct value."""
        if not values:
            return
        total = self.sum
        for value in values:
            total += value
        self.sum = total
        self.count += len(values)
        low, high = min(values), max(values)
        if self.min is None or low < self.min:
            self.min = low
        if self.max is None or high > self.max:
            self.max = high
        # Samples per bucket (None: the zero bucket).
        indexes, counts = {}, {}
        for value, n in Counter(values).items():
            index = indexes[value] = (
                None if value <= _TINY else self._index(value))
            counts[index] = counts.get(index, 0) + n
        self.zeros += counts.pop(None, 0)
        buckets = self.buckets
        if len(buckets) + len(counts) <= self.max_buckets:
            # No collapse can happen, so the order cannot matter.
            for index, n in counts.items():
                buckets[index] = buckets.get(index, 0) + n
            return
        for value in values:    # collapse where one sample at a time would
            index = indexes[value]
            if index is not None:
                buckets[index] = buckets.get(index, 0) + 1
                if len(buckets) > self.max_buckets:
                    self._collapse()

    def _collapse(self):
        """Fold the lowest buckets into the lowest surviving index so at
        most ``max_buckets`` remain.  Deterministic: purely a function
        of the current bucket set."""
        indexes = sorted(self.buckets)
        floor = indexes[len(indexes) - self.max_buckets]
        folded = 0
        for index in indexes:
            if index >= floor:
                break
            folded += self.buckets.pop(index)
        if folded:
            self.buckets[floor] = self.buckets.get(floor, 0) + folded
            self.collapsed += folded

    # -- reading --------------------------------------------------------

    def _representative(self, index):
        """The value reported for bucket ``index``: the point whose
        relative distance to both bucket edges is at most ``rel_err``."""
        return 2.0 * self.gamma ** index / (self.gamma + 1.0)

    def quantile(self, q):
        """The q-quantile (0 <= q <= 1), clamped to the exact observed
        [min, max]; 0.0 when empty."""
        if self.count == 0:
            return 0.0
        rank = max(1, int(math.ceil(q * self.count - 1e-9)))
        if rank <= self.zeros:
            return min(max(0.0, self.min), self.max)
        cumulative = self.zeros
        value = None
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if cumulative >= rank:
                value = self._representative(index)
                break
        if value is None:
            value = self.max
        return min(max(value, self.min), self.max)

    def percentile(self, p):
        """The p-th percentile (0 < p <= 100): :meth:`quantile` with
        the report's spelling."""
        return self.quantile(p / 100.0)

    @property
    def mean(self):
        return self.sum / self.count if self.count else 0.0

    # -- merge + JSON ---------------------------------------------------

    def merge(self, other):
        """Fold another sketch (same gamma) into this one.  Exact: the
        result is the sketch of the concatenated sample streams."""
        if abs(other.gamma - self.gamma) > 1e-12:
            raise ValueError("cannot merge sketches with different gamma")
        for index, n in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + n
        self.zeros += other.zeros
        self.count += other.count
        self.sum += other.sum
        self.collapsed += other.collapsed
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        if len(self.buckets) > self.max_buckets:
            self._collapse()

    def to_summary(self) -> dict:
        """The stable JSON form: exact stats, derived tail quantiles,
        and every bucket count (lossless, see :meth:`from_summary`)."""
        return {
            "rel_err": self.rel_err,
            "max_buckets": self.max_buckets,
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "p999": self.percentile(99.9),
            "zeros": self.zeros,
            "collapsed": self.collapsed,
            # JSON object keys are strings; indexes round-trip via int().
            "buckets": {str(i): n for i, n in sorted(self.buckets.items())},
        }

    @classmethod
    def from_summary(cls, summary) -> "QuantileSketch":
        """Reconstruct a sketch from its :meth:`to_summary` form.
        Exact: ``from_summary(a).merge(from_summary(b))`` equals merging
        the live sketches."""
        sketch = cls(rel_err=summary["rel_err"],
                     max_buckets=summary["max_buckets"])
        sketch.buckets = {int(i): n for i, n in summary["buckets"].items()}
        sketch.zeros = summary["zeros"]
        sketch.count = summary["count"]
        sketch.sum = summary["sum"]
        sketch.collapsed = summary.get("collapsed", 0)
        if sketch.count:
            sketch.min = summary["min"]
            sketch.max = summary["max"]
        return sketch

    def __len__(self):
        return len(self.buckets)

    def __repr__(self):
        return "QuantileSketch(count=%d, rel_err=%g, buckets=%d)" % (
            self.count, self.rel_err, len(self.buckets),
        )
