"""The per-site metrics hub: latency quantile sketches and counters.

The paper reports averages; diagnosing lock-manager and commit-path
behaviour needs *distributions* -- a p99 lock wait tells a different
story than a mean.  Every latency sample lands in a relative-error
:class:`~repro.obs.sketch.QuantileSketch` keyed by ``(site, name)``;
samples tagged with a workload ``mix`` additionally feed a per-``(site,
mix, name)`` sketch for the per-mix tails.  One structure answers every
percentile the report prints, each within ``rel_err`` of the true
sample at that rank.  :class:`MetricsHub` also keeps plain monotonic
**counters** for events whose *count* is the story (cache hits,
messages saved) rather than their latency.  Everything here is pure
bookkeeping: recording a sample never touches the virtual clock.
"""

from __future__ import annotations

from .sketch import QuantileSketch

__all__ = ["MetricsHub"]


#: Samples one sketch buffers before they are folded into it.
BATCH = 64


class _Samples(list):
    """The samples one sketch has not folded in yet."""

    __slots__ = ("sketch",)


class MetricsHub:
    """Quantile sketches keyed by (site, metric name) and, for
    mix-tagged samples, by (site, mix, metric name); plus counters.

    A sample is appended to a bounded buffer of the sketch it lands in
    and folded in by :meth:`QuantileSketch.extend` when the buffer
    fills, or before anything reads the hub -- which records exactly
    what observing each sample in turn would."""

    def __init__(self):
        self._sites = {}       # (site_key, name) -> QuantileSketch
        self._counters = {}    # (site_key, name) -> int
        self._sketches = {}    # (site_key, mix_key, name) -> QuantileSketch
        self._buffers = {}     # a sketch's key -> its _Samples
        self._pending = {}     # (site as passed, name[, mix]) -> the same

    @staticmethod
    def _site_key(site):
        return "-" if site is None else str(site)

    def observe(self, site, name, value, mix=None):
        """Record ``value`` into the (site, name) sketch; when a
        workload ``mix`` is given, also into the (site, mix, name)
        sketch."""
        value = float(value)
        samples = self._pending.get((site, name))
        if samples is None:
            samples = self._open((site, name), self._sites,
                                 (self._site_key(site), name))
        samples.append(value)
        if len(samples) >= BATCH:
            self._drain(samples)
        if mix is not None:
            samples = self._pending.get((site, name, mix))
            if samples is None:
                samples = self._open((site, name, mix), self._sketches,
                                     (self._site_key(site), str(mix), name))
            samples.append(value)
            if len(samples) >= BATCH:
                self._drain(samples)

    def _open(self, raw, table, key):
        samples = self._buffers.get(key)
        if samples is None:
            samples = self._buffers[key] = _Samples()
            samples.sketch = table.get(key)
            if samples.sketch is None:
                samples.sketch = table[key] = QuantileSketch()
        self._pending[raw] = samples
        return samples

    @staticmethod
    def _drain(samples):
        samples.sketch.extend(samples)
        samples.clear()

    def flush(self):
        """Fold every buffered sample into its sketch; every reader
        below calls this first."""
        for samples in self._buffers.values():
            if samples:
                self._drain(samples)

    def incr(self, site, name, value=1):
        """Bump the (site, name) counter by ``value``."""
        key = (self._site_key(site), name)
        self._counters[key] = self._counters.get(key, 0) + int(value)

    def sketch(self, site, name, mix=None) -> QuantileSketch:
        """The (site, name) sketch -- or (site, mix, name) when ``mix``
        is given -- or None if never observed."""
        self.flush()
        if mix is None:
            return self._sites.get((self._site_key(site), name))
        return self._sketches.get((self._site_key(site), str(mix), name))

    def mixes(self):
        """Every mix label that has recorded at least one sample."""
        self.flush()
        return sorted({mix for _site, mix, _name in self._sketches})

    def merged(self, name, mix=None) -> QuantileSketch:
        """One sketch folding every site's samples for ``name`` (only
        those tagged ``mix`` when given); None if never observed."""
        self.flush()
        if mix is None:
            pool = [(key, s) for key, s in self._sites.items()
                    if key[1] == name]
        else:
            pool = [(key, s) for key, s in self._sketches.items()
                    if key[1:] == (str(mix), name)]
        out = None
        for _key, sketch in sorted(pool, key=lambda kv: kv[0]):
            if out is None:
                out = QuantileSketch(rel_err=sketch.rel_err,
                                     max_buckets=sketch.max_buckets)
            out.merge(sketch)
        return out

    # -- report sections ------------------------------------------------

    def by_site(self) -> dict:
        """{site: {name: sketch-summary}} -- the report's ``sites``."""
        self.flush()
        out = {}
        for (site, name), sketch in sorted(self._sites.items()):
            out.setdefault(site, {})[name] = sketch.to_summary()
        return out

    def sketches_by_site(self) -> dict:
        """{site: {mix: {name: sketch-summary}}} -- the report's
        ``sketches`` section payload."""
        self.flush()
        out = {}
        for (site, mix, name), sketch in sorted(self._sketches.items()):
            out.setdefault(site, {}).setdefault(mix, {})[name] = \
                sketch.to_summary()
        return out

    def counters_by_site(self) -> dict:
        """{site: {name: int}} -- the report's ``counters`` section."""
        out = {}
        for (site, name), value in sorted(self._counters.items()):
            out.setdefault(site, {})[name] = value
        return out

    def load(self, report):
        """Fold another process's report -- its ``sites``, ``sketches``
        and ``counters`` sections -- into this hub.  Exact: sketches
        merge by bucket-count addition, so the result equals one hub
        that saw every sample (the matrix runner's merge path)."""
        self.flush()
        for site, metrics in report.get("sites", {}).items():
            for name, summary in metrics.items():
                self._fold(self._sites, (str(site), name), summary)
        for site, mixes in report.get("sketches", {}).items():
            for mix, metrics in mixes.items():
                for name, summary in metrics.items():
                    self._fold(self._sketches, (str(site), str(mix), name),
                               summary)
        for site, values in report.get("counters", {}).items():
            for name, value in values.items():
                self.incr(site, name, value)

    @staticmethod
    def _fold(table, key, summary):
        incoming = QuantileSketch.from_summary(summary)
        sketch = table.get(key)
        if sketch is None:
            table[key] = incoming
        else:
            sketch.merge(incoming)

    def __len__(self):
        return len(self._sites)
