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


class MetricsHub:
    """Quantile sketches keyed by (site, metric name) and, for
    mix-tagged samples, by (site, mix, metric name); plus counters."""

    def __init__(self):
        self._sites = {}       # (site_key, name) -> QuantileSketch
        self._by_raw = {}      # (site as passed, name) -> same sketch
        self._counters = {}    # (site_key, name) -> int
        self._sketches = {}    # (site_key, mix_key, name) -> QuantileSketch

    @staticmethod
    def _site_key(site):
        return "-" if site is None else str(site)

    def observe(self, site, name, value, mix=None):
        """Record ``value`` into the (site, name) sketch; when a
        workload ``mix`` is given, also into the (site, mix, name)
        sketch."""
        sketch = self._by_raw.get((site, name))
        if sketch is None:
            key = (self._site_key(site), name)
            sketch = self._sites.get(key)
            if sketch is None:
                sketch = self._sites[key] = QuantileSketch()
            self._by_raw[(site, name)] = sketch
        sketch.observe(value)
        if mix is not None:
            skey = (self._site_key(site), str(mix), name)
            sketch = self._sketches.get(skey)
            if sketch is None:
                sketch = self._sketches[skey] = QuantileSketch()
            sketch.observe(value)

    def incr(self, site, name, value=1):
        """Bump the (site, name) counter by ``value``."""
        key = (self._site_key(site), name)
        self._counters[key] = self._counters.get(key, 0) + int(value)

    def sketch(self, site, name, mix=None) -> QuantileSketch:
        """The (site, name) sketch -- or (site, mix, name) when ``mix``
        is given -- or None if never observed."""
        if mix is None:
            return self._sites.get((self._site_key(site), name))
        return self._sketches.get((self._site_key(site), str(mix), name))

    def counter(self, site, name) -> int:
        """The (site, name) counter value (0 if never bumped)."""
        return self._counters.get((self._site_key(site), name), 0)

    def mixes(self):
        """Every mix label that has recorded at least one sample."""
        return sorted({mix for _site, mix, _name in self._sketches})

    def merged(self, name, mix=None) -> QuantileSketch:
        """One sketch folding every site's samples for ``name`` (only
        those tagged ``mix`` when given); None if never observed."""
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
        out = {}
        for (site, name), sketch in sorted(self._sites.items()):
            out.setdefault(site, {})[name] = sketch.to_summary()
        return out

    def sketches_by_site(self) -> dict:
        """{site: {mix: {name: sketch-summary}}} -- the report's
        ``sketches`` section payload."""
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
