"""Whole-file locking baseline.

The paper's previous transaction facility "performed locking at the file
level.  Whole file locking restricts the degree of concurrent access to
data files, and is not a satisfactory base on which to implement a
database system" (section 7.1).  This adapter exposes the prior
discipline on top of the record lock manager so the granularity
ablation (ABL-GRAIN in DESIGN.md) can compare the two directly.
"""

from __future__ import annotations

from .manager import LockManager

__all__ = ["WholeFileLockManager", "WHOLE_FILE"]

#: A range safely beyond any file size used in experiments.
WHOLE_FILE = 2 ** 62


class WholeFileLockManager:
    """Degrades every record lock to a lock on the entire file."""

    def __init__(self, manager: LockManager):
        self._manager = manager

    def lock(self, file_id, holder, mode, start, end, nontrans=False,
             wait=True):
        """Lock the whole file regardless of the requested range."""
        return self._manager.lock(
            file_id, holder, mode, 0, WHOLE_FILE, nontrans=nontrans,
            wait=wait,
        )

    def unlock(self, file_id, holder, start, end, two_phase):
        """Unlock the whole file regardless of the requested range."""
        return self._manager.unlock(file_id, holder, 0, WHOLE_FILE, two_phase)

    def __getattr__(self, name):
        return getattr(self._manager, name)
