"""Storage substrate: simulated disks, volumes, buffer cache, and the
shadow-page (intentions list + page differencing) and WAL commit
mechanisms."""

from .buffercache import BufferCache
from .disk import Disk, IOCategory
from .inode import Inode, inode_write_ios, pages_needed
from .logfile import LogFile
from .shadow import IntentEntry, IntentionsList, OpenFileState, ShadowError
from .volume import Volume

__all__ = [
    "BufferCache",
    "Disk",
    "IOCategory",
    "Inode",
    "IntentEntry",
    "IntentionsList",
    "LogFile",
    "OpenFileState",
    "ShadowError",
    "Volume",
    "WalFile",
    "inode_write_ios",
    "pages_needed",
]


def __getattr__(name):
    # The WAL is the ablation baseline: only the report's ``wal``
    # scenario and tests build one, so it loads on first use.
    if name == "WalFile":
        from .wal import WalFile

        return WalFile
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
