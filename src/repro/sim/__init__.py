"""Deterministic discrete-event simulation kernel.

This package is the foundation every other subsystem is built on: a
virtual clock (:class:`Engine`), generator-based processes
(:class:`Process`), waitables (:class:`Event`, :class:`Timeout`,
:class:`AllOf`), a FIFO resource and a FIFO server, the measurement
probes used to reproduce the paper's tables, the null announcer
every engine's ``obs`` starts as, and the table of declared
announcements (:mod:`repro.sim.kinds`) protocol code makes through it.
"""

from .announcer import NULL_ANNOUNCER, NullAnnouncer
from .engine import Engine
from .errors import Interrupt, ProcessKilled, SimError, StaleWait
from .events import AllOf, Event, Timeout, Waitable
from .process import Process
from .resources import FifoResource, FifoServer
from .stats import OperationProbe, Stats

__all__ = [
    "AllOf",
    "Engine",
    "Event",
    "FifoResource",
    "FifoServer",
    "Interrupt",
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
