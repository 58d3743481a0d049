"""File descriptor blocks (inodes).

An inode holds the file size, a version number (used by replication),
and the list of page pointers -- "in Unix that list is contained in the
file's descriptor block (inode), although there may be indirection
present" (section 4).  We model indirection only where it matters to the
paper: the number of I/Os an atomic inode replacement costs grows by one
per indirect block once a file outgrows its direct pointers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Inode", "inode_write_ios"]


@dataclass
class Inode:
    """On-disk file metadata.  ``pages[i]`` is the block number holding
    page ``i`` of the file."""

    ino: int
    size: int = 0
    version: int = 1
    pages: list = field(default_factory=list)

    def copy(self) -> "Inode":
        """A deep copy safe for independent mutation."""
        return Inode(ino=self.ino, size=self.size, version=self.version,
                     pages=list(self.pages))

    def npages(self) -> int:
        """Number of page slots in the pointer table."""
        return len(self.pages)

    def block_for(self, page_index):
        """Block number for a page, or None past EOF / in a hole."""
        if 0 <= page_index < len(self.pages):
            return self.pages[page_index]
        return None


def inode_write_ios(npages, max_direct, changed_pages=None) -> int:
    """I/Os to atomically replace an inode: 1 for the descriptor block
    plus 1 per indirect block whose pointers changed.

    ``changed_pages`` is the set of page indices whose block pointers
    this install rewrites; only the indirect blocks covering those
    pages need rewriting.  ``None`` means "assume all" (a conservative
    caller).  Pointer-per-indirect-block equals ``max_direct`` for
    simplicity -- the shape (small files cost exactly one inode write)
    is what the paper's Figure 5 analysis relies on.
    """
    if npages <= max_direct:
        return 1
    if changed_pages is None:
        overflow = npages - max_direct
        return 1 + (overflow + max_direct - 1) // max_direct
    groups = {
        (p - max_direct) // max_direct
        for p in changed_pages
        if p >= max_direct
    }
    return 1 + len(groups)
