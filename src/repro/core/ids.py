"""Temporally unique transaction identifiers.

"BeginTrans ... causes the generation of a temporally unique identifier,
which names the newly formed transaction" (section 4.1).  Temporal
uniqueness is what makes duplicate commit/abort messages harmless during
recovery (section 4.4), and a total age order is what the deadlock
victim policy uses.

A :class:`TransactionId` is ``(timestamp, site_id, sequence)``: the
virtual time of creation, the creating site (ties across sites), and a
per-site counter (ties within one site at one instant).  Identifiers
are ordered, hashable, and compare younger = larger.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

__all__ = ["TransactionId", "TransactionIdGenerator"]


class TransactionId(namedtuple("TransactionId", "timestamp site_id sequence")):
    """The tuple ``(timestamp, site_id, sequence)`` itself.

    The id *is* a tuple rather than an object that compares like one:
    it names a transaction's state in every lock table, log index and
    cache (holder identities are ``("txn", tid)``), and the deadlock
    detector sorts thousands of such holders per scan.  Equality,
    ordering and hashing are therefore the C tuple slots -- no
    comparison ever enters the interpreter -- and pickling (how a log
    file holds its records) rebuilds an equal id from its three fields.

    Being a tuple has two edges: as the right operand of ``%`` an id
    must be wrapped (``"%s" % (tid,)``), and ``json`` would write one
    as a three-element list, so exporters stringify it first.
    """

    __slots__ = ()

    def __repr__(self):
        return "tid(%g.%s.%s)" % self

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        # Immutable value: a copy would be indistinguishable, and every
        # RPC payload is deep-copied in transit.
        return self


class TransactionIdGenerator:
    """Per-site generator; never produces the same id twice, even across
    a simulated crash (the sequence is monotonic per object and the
    timestamp advances)."""

    def __init__(self, engine, site_id):
        self._engine = engine
        self._site_id = site_id
        self._seq = itertools.count(1)

    def next(self) -> TransactionId:
        """A fresh, temporally unique transaction id."""
        return TransactionId(
            timestamp=self._engine.now,
            site_id=self._site_id,
            sequence=next(self._seq),
        )
