"""Per-mix SLOs and error-budget burn rates.

A service-level objective here is the fleet-operations formulation: an
objective admits an **error budget** -- the fraction of events allowed
to be bad -- and the interesting signal is the **burn rate**, how fast
the workload is spending that budget (burn 1.0 = exactly on budget,
burn 10.0 = the budget gone in a tenth of the window).  Two objective
kinds cover the workload mixes in :mod:`repro.workloads.txngen`:

* ``latency`` -- "pN of ``metric`` must be <= ``bound`` seconds".  An
  event is *bad* when its sample exceeds the bound; the budget is the
  ``(100 - N) / 100`` fraction of events that may legally exceed it.
* ``rate`` -- "the bad-event fraction must be <= ``bound``" (e.g. an
  abort-rate cap).  The budget is the bound itself.

Either way ``burn = bad_fraction / budget``, so ``burn <= 1.0`` means
the objective holds.  Objectives are declared on the workload mix
(:class:`repro.workloads.txngen.TxnMix` ``slos``), the driver announces
them (``mix.declare``), the instrumentation hooks feed mix-tagged
samples through :meth:`repro.obs.Observability.observe`, and every
decided transaction's ``txn.state`` announcement is one ``abort.rate``
outcome.

The tracker appends ``(ts, bad)`` pairs and updates a
``slo.burn.<mix>`` timeline gauge (the running worst burn across the
mix's objectives); windowed burn series are computed post hoc by
:meth:`SloTracker.section`.
"""

from __future__ import annotations

from repro.core import TxnState
from repro.slo import SloObjective

__all__ = ["SloObjective", "SloTracker"]

#: ``abort.rate`` badness of each decided ``txn.state`` transition.
_OUTCOMES = {TxnState.COMMITTED: False, TxnState.ABORTING: True}


class SloTracker:
    """Per-(mix, objective) good/bad event streams with burn-rate
    evaluation.  ``timeline`` (optional) receives the running
    ``slo.burn.<mix>`` gauge at site ``"-"``."""

    def __init__(self, engine, timeline=None):
        self.engine = engine
        self.timeline = timeline
        self._objectives = {}  # mix -> tuple[SloObjective]
        self._events = {}      # (mix, objective.name) -> [(ts, bad_bool)]
        self._totals = {}      # (mix, objective.name) -> [total, bad]

    def subscriptions(self):
        return (("mix.declare", self._on_declare),
                ("txn.state", self._on_txn_state))

    def _on_declare(self, ev):
        if ev.get("slos"):
            self.declare(ev.get("mix"), ev.get("slos"))

    def _on_txn_state(self, ev):
        """A decided outcome: one good or bad ``abort.rate`` event."""
        mix = ev.get("txn").mix
        bad = _OUTCOMES.get(ev.get("state"))
        if mix is not None and bad is not None:
            self.outcome(mix, "abort.rate", bad=bad)

    # -- declaration ----------------------------------------------------

    def declare(self, mix, objectives):
        """Register a mix's objectives (idempotent; re-declaring the
        same mix replaces its objective list but keeps its events)."""
        self._objectives[str(mix)] = tuple(objectives)

    def objectives(self, mix):
        return self._objectives.get(str(mix), ())

    def mixes(self):
        return sorted(self._objectives)

    # -- recording ------------------------------------------------------

    def _record(self, mix, objective, bad):
        key = (mix, objective.name)
        events = self._events.get(key)
        if events is None:
            events = self._events[key] = []
        events.append((self.engine.now, bad))
        totals = self._totals.get(key)
        if totals is None:
            totals = self._totals[key] = [0, 0]
        totals[0] += 1
        if bad:
            totals[1] += 1

    def _update_gauge(self, mix):
        if self.timeline is None:
            return
        worst = 0.0
        for objective in self._objectives.get(mix, ()):
            totals = self._totals.get((mix, objective.name))
            if not totals or not totals[0]:
                continue
            burn = (totals[1] / totals[0]) / objective.budget
            if burn > worst:
                worst = burn
        self.timeline.gauge_set(None, "slo.burn." + mix, worst)

    def sample(self, mix, metric, value) -> bool:
        """Feed one latency sample; returns True when it violated at
        least one of the mix's latency objectives (the observer uses this
        to pin the offending transaction's trace)."""
        mix = str(mix)
        violated = False
        matched = False
        for objective in self._objectives.get(mix, ()):
            if objective.kind != "latency" or objective.metric != metric:
                continue
            matched = True
            bad = objective.is_bad(value)
            violated = violated or bad
            self._record(mix, objective, bad)
        if matched:
            self._update_gauge(mix)
        return violated

    def outcome(self, mix, metric, bad) -> bool:
        """Feed one rate-objective event (e.g. ``abort.rate`` with
        ``bad=True`` for an abort); returns True when the event was bad
        and the mix declares a matching rate objective."""
        mix = str(mix)
        matched = False
        for objective in self._objectives.get(mix, ()):
            if objective.kind != "rate" or objective.metric != metric:
                continue
            matched = True
            self._record(mix, objective, bool(bad))
        if matched:
            self._update_gauge(mix)
        return matched and bool(bad)

    # -- evaluation -----------------------------------------------------

    def _series(self, events, budget, window, windows):
        """Per-window burn rates over the run (0.0 for empty windows)."""
        totals = [0] * windows
        bads = [0] * windows
        for ts, bad in events:
            slot = min(windows - 1, int(ts / window))
            totals[slot] += 1
            if bad:
                bads[slot] += 1
        return [
            (bads[k] / totals[k]) / budget if totals[k] else 0.0
            for k in range(windows)
        ]

    def section(self, window=0.25, until=None) -> dict:
        """The ``slo`` report section: per-mix, per-objective totals,
        overall and worst-window burn, and the windowed burn series."""
        import math

        if until is None:
            until = self.engine.now
        until = float(until)
        windows = max(1, int(math.ceil(until / window - 1e-9)))
        mixes = {}
        worst_overall = 0.0
        breaches = 0
        for mix in sorted(self._objectives):
            rows = []
            mix_worst = 0.0
            for objective in self._objectives[mix]:
                key = (mix, objective.name)
                events = self._events.get(key, ())
                total = len(events)
                bad = sum(1 for _ts, b in events if b)
                budget = objective.budget
                burn = (bad / total) / budget if total else 0.0
                series = self._series(events, budget, window, windows)
                worst = max(series) if series else 0.0
                ok = burn <= 1.0
                if not ok:
                    breaches += 1
                mix_worst = max(mix_worst, burn)
                rows.append({
                    "name": objective.name,
                    "metric": objective.metric,
                    "kind": objective.kind,
                    "percentile": objective.percentile
                    if objective.kind == "latency" else None,
                    "bound": objective.bound,
                    "budget": budget,
                    "total": total,
                    "bad": bad,
                    "burn": burn,
                    "worst_burn": worst,
                    "ok": ok,
                    "series": series,
                })
            worst_overall = max(worst_overall, mix_worst)
            mixes[mix] = {
                "objectives": rows,
                "worst_burn": mix_worst,
                "ok": all(r["ok"] for r in rows),
            }
        return {
            "window": float(window),
            "windows": windows,
            "until": until,
            "mixes": mixes,
            "worst_burn": worst_overall,
            "total_breaches": breaches,
            "ok": breaches == 0,
        }

    def __len__(self):
        return sum(len(ev) for ev in self._events.values())
