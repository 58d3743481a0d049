"""The declaration of a service-level objective.

A leaf module: workload mixes (:mod:`repro.workloads.txngen`) *declare*
objectives whether or not anything observes the run, so the class lives
outside the observer package, which ``Cluster.enable_observability()``
is the first to import.  Semantics and the tracker that scores the
objectives are in :mod:`repro.obs.slo`, which re-exports the class.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SloObjective"]


@dataclass(frozen=True)
class SloObjective:
    """One declared objective; see :mod:`repro.obs.slo` for semantics."""

    metric: str            # e.g. "commit.latency", "client.latency",
                           # "abort.rate"
    bound: float           # seconds (latency) or fraction (rate)
    kind: str = "latency"  # "latency" or "rate"
    percentile: float = 99.0  # latency objectives only

    def __post_init__(self):
        if self.kind not in ("latency", "rate"):
            raise ValueError("SLO kind must be 'latency' or 'rate'")
        if self.kind == "latency" and not 0.0 < self.percentile < 100.0:
            raise ValueError("latency SLO percentile must be in (0, 100)")
        if self.bound <= 0.0:
            raise ValueError("SLO bound must be positive")
        if self.kind == "rate" and self.bound >= 1.0:
            raise ValueError("rate SLO bound must be a fraction below 1")

    @property
    def budget(self) -> float:
        """The error budget: the fraction of events allowed to be bad."""
        if self.kind == "latency":
            return (100.0 - self.percentile) / 100.0
        return self.bound

    @property
    def name(self) -> str:
        """Stable label, e.g. ``commit.latency.p99`` / ``abort.rate``."""
        if self.kind == "latency":
            return "%s.p%g" % (self.metric, self.percentile)
        return self.metric

    def is_bad(self, value) -> bool:
        """Latency objectives only: does this sample exceed the bound?"""
        return value > self.bound
