"""Deterministic discrete-event simulation kernel.

This package is the foundation every other subsystem is built on: a
virtual clock (:class:`Engine`), generator-based processes
(:class:`Process`), waitables (:class:`Event`, :class:`Timeout`,
:class:`AllOf`, :class:`AnyOf`), FIFO resources, servers and mailboxes,
the measurement probes used to reproduce the paper's tables, and the
null announcer every engine's ``obs`` starts as.
"""

from .announcer import NULL_ANNOUNCER, NullAnnouncer
from .engine import Engine
from .errors import Interrupt, ProcessKilled, SimError, StaleWait
from .events import AllOf, AnyOf, Event, Timeout, Waitable
from .process import Process
from .resources import FifoResource, FifoServer, Mailbox
from .stats import OperationProbe, Stats

__all__ = [
    "AllOf",
    "AnyOf",
    "Engine",
    "Event",
    "FifoResource",
    "FifoServer",
    "Interrupt",
    "Mailbox",
    "NULL_ANNOUNCER",
    "NullAnnouncer",
    "OperationProbe",
    "Process",
    "ProcessKilled",
    "SimError",
    "StaleWait",
    "Stats",
    "Timeout",
    "Waitable",
]
