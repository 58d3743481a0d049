"""Workload generators for benchmarks and examples."""

from .banking import AccountFile, audit_program, transfer_program
from .driver import LoadDriver, LoadResult, ScalingDriver, ScalingResult
from .randgen import PoissonArrivals, ThinkTimes, ZipfKeys, make_keys
from .records import AccessString, RecordLayout, RecordWorkload
from .txngen import MIXES, TxnClass, TxnGenerator, TxnMix

__all__ = [
    "AccessString",
    "AccountFile",
    "LoadDriver",
    "LoadResult",
    "MIXES",
    "PoissonArrivals",
    "RecordLayout",
    "RecordWorkload",
    "ScalingDriver",
    "ScalingResult",
    "ThinkTimes",
    "TxnClass",
    "TxnGenerator",
    "TxnMix",
    "ZipfKeys",
    "audit_program",
    "make_keys",
    "transfer_program",
]
