"""Record-level locking: modes and the Figure 1 matrix, the storage-site
lock list (Figure 3), granting/queueing/retention (sections 3.1-3.4),
the requesting site's lock list of its own grants (section 5.1),
deadlock detection, and the whole-file locking baseline.  The lease
structures of the lock-caching extension are in :mod:`.lease`, imported
only when that extension is on."""

from .cache import LockCache
from .deadlock import CycleCache, build_wait_graph, choose_victim, find_cycle
from .filelock import WHOLE_FILE, WholeFileLockManager
from .manager import (
    LockCancelled,
    LockConflict,
    LockError,
    LockManager,
)
from .modes import LockMode, compatible, unix_access_allowed
from .table import LockRecord, LockTable

__all__ = [
    "WHOLE_FILE",
    "LockCache",
    "LockCancelled",
    "LockConflict",
    "LockError",
    "LockManager",
    "LockMode",
    "LockRecord",
    "LockTable",
    "WholeFileLockManager",
    "CycleCache",
    "build_wait_graph",
    "choose_victim",
    "compatible",
    "find_cycle",
    "unix_access_allowed",
]
