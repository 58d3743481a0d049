"""Fixed-bucket latency histograms and the per-site metrics hub.

The paper reports averages; diagnosing lock-manager and commit-path
behaviour needs *distributions* -- a p99 lock wait tells a different
story than a mean.  :class:`Histogram` keeps geometric fixed buckets
(so memory is constant regardless of sample count) plus exact count /
sum / min / max; percentiles interpolate within the winning bucket and
are clamped to the exact observed range, so all-equal samples report
that exact value.

:class:`MetricsHub` groups histograms by ``(site, name)``, and also
keeps plain monotonic **counters** for events whose *count* is the
story (cache hits, messages saved) rather than their latency.  Samples
tagged with a workload ``mix`` additionally feed a per-``(site, mix,
metric)`` :class:`~repro.obs.sketch.QuantileSketch`, the relative-error
structure that makes p999 trustworthy at fleet scale (the histogram's
ratio-2 buckets are not).  Everything here is pure bookkeeping:
recording a sample never touches the virtual clock.
"""

from __future__ import annotations

from bisect import bisect_left

from .sketch import QuantileSketch

__all__ = ["Histogram", "MetricsHub", "default_bounds"]


def default_bounds(lo=1e-4, ratio=2.0, n=28):
    """Geometric bucket upper bounds: 0.1 ms doubling up to ~3.7 h."""
    bounds = []
    value = lo
    for _ in range(n):
        bounds.append(value)
        value *= ratio
    return tuple(bounds)


_DEFAULT_BOUNDS = default_bounds()


class Histogram:
    """A fixed-bucket histogram with exact count/sum/min/max."""

    __slots__ = ("bounds", "counts", "count", "sum", "min", "max")

    def __init__(self, bounds=None):
        self.bounds = tuple(bounds) if bounds is not None else _DEFAULT_BOUNDS
        # counts[i] covers (bounds[i-1], bounds[i]]; the final slot is
        # the overflow bucket (> bounds[-1]).
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None

    def observe(self, value):
        """Record one sample (seconds, or any non-negative quantity)."""
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self.counts[bisect_left(self.bounds, value)] += 1

    def _bucket(self, value):
        """Bucket index for ``value`` -- the C-implemented bisect, since
        every span close and latency sample funnels through here."""
        return bisect_left(self.bounds, value)

    @property
    def mean(self):
        return self.sum / self.count if self.count else 0.0

    def percentile(self, p):
        """Estimated p-th percentile (0 < p <= 100), clamped to the
        exact observed [min, max] so degenerate distributions are exact."""
        if self.count == 0:
            return 0.0
        target = p / 100.0 * self.count
        cumulative = 0
        for i, n in enumerate(self.counts):
            if n == 0:
                continue
            if cumulative + n >= target:
                lower = 0.0 if i == 0 else self.bounds[i - 1]
                upper = self.bounds[i] if i < len(self.bounds) else self.max
                fraction = (target - cumulative) / n
                estimate = lower + (upper - lower) * fraction
                return min(max(estimate, self.min), self.max)
            cumulative += n
        return self.max

    def merge(self, other):
        """Fold another histogram (same bounds) into this one."""
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different buckets")
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.count += other.count
        self.sum += other.sum
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    @classmethod
    def from_summary(cls, summary) -> "Histogram":
        """Reconstruct a histogram from its :meth:`summary` JSON form.

        Exact fields (count/sum/min/max and the bucket counts) round-trip
        losslessly, so ``from_summary(a).merge(from_summary(b))`` merges
        two *reports* exactly as merging the live histograms would --
        the scenario-matrix runner's cross-process merge path."""
        buckets = summary["buckets"]
        hist = cls(bounds=buckets["bounds"])
        hist.counts = list(buckets["counts"])
        hist.count = summary["count"]
        hist.sum = summary["sum"]
        if hist.count:
            hist.min = summary["min"]
            hist.max = summary["max"]
        return hist

    def summary(self) -> dict:
        """The stable JSON form: exact stats + interpolated percentiles."""
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "buckets": {
                "bounds": list(self.bounds),
                "counts": list(self.counts),
            },
        }

    def __repr__(self):
        return "Histogram(count=%d, mean=%.6f, max=%s)" % (
            self.count, self.mean, self.max,
        )


class MetricsHub:
    """Histograms keyed by (site, metric name), plus quantile sketches
    keyed by (site, mix, metric name) for mix-tagged samples."""

    def __init__(self, bounds=None, sketch_rel_err=0.005):
        self._bounds = bounds
        self._sketch_rel_err = sketch_rel_err
        self._histograms = {}  # (site_key, name) -> Histogram
        self._by_raw = {}      # (site as passed, name) -> same Histogram
        self._counters = {}    # (site_key, name) -> int
        self._sketches = {}    # (site_key, mix_key, name) -> QuantileSketch
        self._merged_cache = {}  # name -> merged Histogram (invalidated
                                 # whenever that metric sees a new sample)

    @staticmethod
    def _site_key(site):
        return "-" if site is None else str(site)

    def observe(self, site, name, value, mix=None):
        """Record ``value`` into the (site, name) histogram; when a
        workload ``mix`` is given, also into the (site, mix, name)
        quantile sketch."""
        hist = self._by_raw.get((site, name))
        if hist is None:
            key = (self._site_key(site), name)
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = Histogram(self._bounds)
            self._by_raw[(site, name)] = hist
        hist.observe(value)
        if self._merged_cache:
            self._merged_cache.pop(name, None)
        if mix is not None:
            skey = (self._site_key(site), str(mix), name)
            sketch = self._sketches.get(skey)
            if sketch is None:
                sketch = QuantileSketch(rel_err=self._sketch_rel_err)
                self._sketches[skey] = sketch
            sketch.observe(value)

    def incr(self, site, name, value=1):
        """Bump the (site, name) counter by ``value``."""
        key = (self._site_key(site), name)
        self._counters[key] = self._counters.get(key, 0) + int(value)

    def histogram(self, site, name) -> Histogram:
        """The (site, name) histogram, or None if never observed."""
        return self._histograms.get((self._site_key(site), name))

    def counter(self, site, name) -> int:
        """The (site, name) counter value (0 if never bumped)."""
        return self._counters.get((self._site_key(site), name), 0)

    def sites(self):
        return sorted({site for site, _name in self._histograms})

    def names(self, site=None):
        if site is None:
            return sorted({name for _site, name in self._histograms})
        key = self._site_key(site)
        return sorted(name for s, name in self._histograms if s == key)

    def merged(self, name) -> Histogram:
        """One histogram folding every site's samples for ``name``.

        Memoized: the scaling sweep's per-cell reporting calls this
        repeatedly per metric, and rebuilding the bucket arrays each
        time showed up in profiles.  The cache entry is invalidated the
        moment :meth:`observe` records another sample for ``name``."""
        if name in self._merged_cache:
            return self._merged_cache[name]
        out = None
        for (_site, metric), hist in sorted(self._histograms.items()):
            if metric != name:
                continue
            if out is None:
                out = Histogram(hist.bounds)
            out.merge(hist)
        self._merged_cache[name] = out
        return out

    # -- quantile sketches (per-mix tails) ------------------------------

    def sketch(self, site, name, mix) -> QuantileSketch:
        """The (site, mix, name) sketch, or None if never observed."""
        return self._sketches.get((self._site_key(site), str(mix), name))

    def mixes(self):
        """Every mix label that has recorded at least one sketch sample."""
        return sorted({mix for _site, mix, _name in self._sketches})

    def merged_sketch(self, name, mix=None) -> QuantileSketch:
        """One sketch folding every site's mix-tagged samples for
        ``name`` (all mixes, or just ``mix`` when given)."""
        out = None
        for (_site, skmix, metric), sketch in sorted(self._sketches.items()):
            if metric != name or (mix is not None and skmix != str(mix)):
                continue
            if out is None:
                out = QuantileSketch(rel_err=sketch.rel_err,
                                     max_buckets=sketch.max_buckets)
            out.merge(sketch)
        return out

    def sketches_by_site(self) -> dict:
        """{site: {mix: {name: sketch-summary}}} -- the report's
        ``sketches`` section payload."""
        out = {}
        for (site, mix, name), sketch in sorted(self._sketches.items()):
            out.setdefault(site, {}).setdefault(mix, {})[name] = \
                sketch.to_summary()
        return out

    def load_sketches(self, section):
        """Fold a ``sketches`` report section (another process's
        :meth:`sketches_by_site`) into this hub -- exact, the matrix
        runner's cross-process merge path."""
        for site, mixes in section.items():
            for mix, metrics in mixes.items():
                for name, summary in metrics.items():
                    key = (str(site), str(mix), name)
                    incoming = QuantileSketch.from_summary(summary)
                    sketch = self._sketches.get(key)
                    if sketch is None:
                        self._sketches[key] = incoming
                    else:
                        sketch.merge(incoming)

    def by_site(self) -> dict:
        """{site: {name: summary-dict}} -- the report's payload."""
        out = {}
        for (site, name), hist in sorted(self._histograms.items()):
            out.setdefault(site, {})[name] = hist.summary()
        return out

    def counters_by_site(self) -> dict:
        """{site: {name: int}} -- the report's counters section."""
        out = {}
        for (site, name), value in sorted(self._counters.items()):
            out.setdefault(site, {})[name] = value
        return out

    def __len__(self):
        return len(self._histograms)
