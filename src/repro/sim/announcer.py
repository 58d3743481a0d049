"""The null announcer: what ``engine.obs`` is while nobody observes.

Protocol code announces every transition through the hooks on
``engine.obs`` and never asks whether anyone listens: ``span`` / ``end``
open and close the causal trace, ``observe`` / ``incr`` feed the
sketches and counters, ``event`` announces one protocol transition, and
``context`` / ``inherit`` carry the trace context into a message and
into a spawned process.  ``event`` and ``span`` take a declared kind or
span name, the site, then the fields by position in the order
:mod:`repro.sim.kinds` declares them; ``end`` takes the span, its
status, then the fields only ``end`` supplies.  An engine starts with
:data:`NULL_ANNOUNCER`, whose hooks take their arguments as a tuple and
do nothing else; ``repro.obs.Observability`` has the same hooks and
takes its place when installed.  Whether a run is observed is
``cluster.obs``.  This module imports nothing from ``repro.obs``.
"""

from __future__ import annotations

__all__ = ["NullAnnouncer", "NULL_ANNOUNCER"]


class NullAnnouncer:
    """Every hook of ``repro.obs.Observability``, doing nothing."""

    __slots__ = ()

    def span(self, name, site_id=None, *values, parent=None, root=False):
        """Open no span; the None returned is accepted by :meth:`end`."""
        return None

    def end(self, span, status=None, *values):
        """Close nothing."""

    def observe(self, site, name, value, mix=None):
        """Record no sample."""

    def incr(self, site, name, value=1):
        """Count nothing."""

    def event(self, kind, site_id=None, *values):
        """Announce to nobody."""

    def context(self):
        """No trace context to ship inside a message."""
        return None

    def inherit(self, proc):
        """Hand no trace context to a spawned process."""


#: The one null announcer every engine starts with (it has no state).
NULL_ANNOUNCER = NullAnnouncer()
