"""Shadow-page record commit: intentions lists + page differencing.

This module is the paper's "unusual logging strategy, based on shadow
pages but supporting logical level locking" (abstract; sections 4-5).

An :class:`OpenFileState` is the in-core state of one file at its
storage site while open for update.  It tracks, per physical page:

* the **working image** -- the current contents everyone sees, including
  uncommitted modifications (Locus makes uncommitted data visible,
  section 5);
* per **owner** (a transaction id or a non-transaction process id), the
  byte ranges that owner modified and has not yet committed or aborted.

Commit is two steps matching the two halves of two-phase commit:

* :meth:`flush` (prepare) writes each dirty page to a freshly allocated
  *shadow block* and returns the :class:`IntentionsList`.  A page with a
  single owner is written directly (Figure 4a).  A page carrying several
  owners' disjoint records is *differenced*: the committed image is
  re-read and only the committing owner's ranges are spliced onto it
  (Figure 4b), so neighbours' uncommitted bytes are not leaked to disk.
* :meth:`apply` (the single-file commit mechanism) atomically replaces
  the inode's page pointers with the intentions-list blocks and frees
  the old blocks.  If some *other* owner committed the same page between
  our flush and our apply, the entry is re-merged against the newest
  committed image -- the committing owner's bytes are recovered from its
  shadow block, so apply never needs information that is not durable.
  Apply is idempotent (duplicate phase-two messages are harmless,
  section 4.4).

:meth:`abort` discards a sole owner's shadow outright, and for shared
pages re-reads the committed image and restores the aborting owner's
ranges from it (section 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.rangeset import RangeSet
from repro.sim import FifoResource

from .disk import IOCategory

__all__ = ["IntentEntry", "IntentionsList", "OpenFileState", "ShadowError"]


class ShadowError(Exception):
    """Misuse of the shadow-commit machinery (not a simulated failure)."""


@dataclass
class IntentEntry:
    """One page of an intentions list."""

    page_index: int
    new_block: object          # shadow block holding the prepared image
    merge_base_block: object   # committed block the image was built from
    ranges: RangeSet           # page-relative ranges owned by the committer

    def to_record(self):
        """A plain-dict form safe to store in a durable log."""
        return {
            "page_index": self.page_index,
            "new_block": self.new_block,
            "merge_base_block": self.merge_base_block,
            "ranges": list(self.ranges),
        }

    @classmethod
    def from_record(cls, rec):
        return cls(
            page_index=rec["page_index"],
            new_block=rec["new_block"],
            merge_base_block=rec["merge_base_block"],
            ranges=RangeSet(rec["ranges"]),
        )


@dataclass
class IntentionsList:
    """Everything needed to commit one owner's records in one file."""

    vol_id: object
    ino: int
    owner: object
    owner_extent: int          # highest byte+1 the owner wrote (0 if none)
    entries: list = field(default_factory=list)

    def to_record(self):
        """A plain-dict form safe to store in a durable log."""
        return {
            "vol_id": self.vol_id,
            "ino": self.ino,
            "owner": self.owner,
            "owner_extent": self.owner_extent,
            "entries": [e.to_record() for e in self.entries],
        }

    @classmethod
    def from_record(cls, rec):
        return cls(
            vol_id=rec["vol_id"],
            ino=rec["ino"],
            owner=rec["owner"],
            owner_extent=rec["owner_extent"],
            entries=[IntentEntry.from_record(e) for e in rec["entries"]],
        )

    def free_stale(self, volume):
        """Free the shadow blocks the inode does not point at (aborted, or
        re-merged): only once no prepare record names them for a redo."""
        inode = volume.inode(self.ino) if volume.exists(self.ino) else None
        for entry in self.entries:
            if inode is None or inode.block_for(entry.page_index) != entry.new_block:
                volume.free_block(entry.new_block)


class _PageState:
    """In-core state of one modified page."""

    __slots__ = ("working", "owners")

    def __init__(self, working):
        self.working = working      # bytearray, full page
        self.owners = {}            # owner -> RangeSet (page-relative)

    def live_owners(self):
        return [o for o, r in self.owners.items() if r]


class OpenFileState:
    """In-core update state of one file at its storage site."""

    def __init__(self, engine, cost, volume, ino, keep_clean_copies=False):
        self._engine = engine
        self._cost = cost
        self._volume = volume
        self.ino = ino
        # Section 6.3 / footnote 7: in the measured system the buffer
        # taken over by a dirty page no longer holds a clean copy, so
        # differencing re-reads from disk.  keep_clean_copies=True models
        # the paper's proposed optimization of retaining clean copies.
        self.keep_clean_copies = keep_clean_copies
        self._pages = {}        # page_index -> _PageState
        self._extents = {}      # owner -> max byte+1 written
        self._prepared = {}     # owner -> IntentionsList
        self._size = volume.inode(ino).size
        self._mutex = FifoResource(engine)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Working size: committed size plus any uncommitted extension."""
        return self._size

    @property
    def committed_size(self) -> int:
        return self._volume.inode(self.ino).size

    def owners(self):
        """Every owner with uncommitted or prepared state here."""
        out = set(self._prepared)
        for ps in self._pages.values():
            out.update(ps.live_owners())
        return out

    def is_idle(self) -> bool:
        """No uncommitted data and no prepared-but-unapplied commit."""
        return not self.owners()

    def dirty_owners(self, start, end):
        """File-relative uncommitted ranges per owner inside [start, end).

        This is the interface lock rule 2 (section 3.3) consults: a
        transaction locking a modified-but-uncommitted record must adopt
        and later commit it.
        """
        out = {}
        if end <= start:
            return out
        psize = self._cost.page_size
        window = RangeSet.single(start, end)
        # Only pages overlapping the window can contribute.  Every lock
        # grant funnels through here with a window of a record or two
        # while the file may have hundreds of dirty pages, so a narrow
        # window probes its pages by key; one wider than the dirty set
        # (a whole-file lock) walks the dirty pages instead.  The two
        # walks differ only in the order owners first appear, which
        # nothing depends on: the per-owner range sets are normalized,
        # and rule 2 adopts each owner's bytes independently.
        lo_page = start // psize
        hi_page = (end + psize - 1) // psize
        pages = self._pages
        narrow = hi_page - lo_page < len(pages)
        for page_index in range(lo_page, hi_page) if narrow else pages:
            ps = pages.get(page_index)
            if ps is None or not lo_page <= page_index < hi_page:
                continue
            base = page_index * psize
            for owner, ranges in ps.owners.items():
                hit = ranges.shift(base).intersection(window)
                if hit:
                    prior = out.get(owner)
                    out[owner] = hit if prior is None else prior.union(hit)
        return out

    def has_updates(self, owner) -> bool:
        """Any state here that commits or aborts with ``owner``: dirty
        page ranges, a reserved append extent, or a flushed-but-unapplied
        intentions list.  False means the owner only *read* (or locked)
        this file -- the read-only-participant test of the 2PC prepare
        elision (docs/COMMIT_BATCHING.md)."""
        if owner in self._prepared or self._extents.get(owner, 0):
            return True
        return self.has_dirty(owner)

    # ------------------------------------------------------------------
    # read / write
    # ------------------------------------------------------------------

    def read(self, offset, nbytes):
        """Generator: read bytes from the working image (uncommitted data
        from any owner is visible, per section 5)."""
        if offset < 0 or nbytes < 0:
            raise ShadowError("negative read bounds")
        end = min(offset + nbytes, self._size)
        if end <= offset:
            return b""
        psize = self._cost.page_size
        out = bytearray()
        for page_index in range(offset // psize, (end - 1) // psize + 1):
            yield self._engine.charge(
                self._cost.instr(self._cost.read_write_instructions)
            )
            image = yield from self._page_image(page_index)
            lo = max(offset, page_index * psize) - page_index * psize
            hi = min(end, (page_index + 1) * psize) - page_index * psize
            out += image[lo:hi]
        return bytes(out)

    def write(self, owner, offset, data):
        """Generator: write ``data`` at ``offset`` on behalf of ``owner``.

        The bytes land in the working image; nothing reaches disk until
        flush.  Partially overwritten pages are first read in (the
        ordinary read-modify-write), after which -- unless
        ``keep_clean_copies`` -- the clean cached copy is dropped,
        because the system's buffer now holds a dirtied image.
        """
        if owner in self._prepared:
            raise ShadowError("owner %r already prepared; cannot write" % (owner,))
        if offset < 0:
            raise ShadowError("negative write offset")
        if not data:
            return
        psize = self._cost.page_size
        end = offset + len(data)
        pos = offset
        while pos < end:
            page_index = pos // psize
            yield self._engine.charge(
                self._cost.instr(self._cost.read_write_instructions)
            )
            ps = yield from self._ensure_working(
                page_index,
                full_overwrite=(pos == page_index * psize and end >= (page_index + 1) * psize),
            )
            lo = pos - page_index * psize
            hi = min(end - page_index * psize, psize)
            ps.working[lo:hi] = data[pos - offset : pos - offset + (hi - lo)]
            ps.owners.setdefault(owner, RangeSet()).add(lo, hi)
            pos = page_index * psize + hi
        self._size = max(self._size, end)
        self._extents[owner] = max(self._extents.get(owner, 0), end)

    def reserve_extent(self, owner, new_end):
        """Extend the working file size on behalf of ``owner`` without
        writing data (append-mode lock-and-extend, section 3.2).  The
        extension commits or aborts with the owner's other updates."""
        if new_end > self._size:
            self._size = new_end
        self._extents[owner] = max(self._extents.get(owner, 0), new_end)

    # ------------------------------------------------------------------
    # ownership transfer (lock rule 2, section 3.3)
    # ------------------------------------------------------------------

    def adopt(self, new_owner, old_owner, start, end):
        """Transfer ``old_owner``'s uncommitted ranges within
        [start, end) to ``new_owner`` (who will commit or abort them)."""
        if old_owner in self._prepared:
            raise ShadowError("cannot adopt from a prepared owner")
        psize = self._cost.page_size
        adopted_top = 0
        for page_index, ps in self._pages.items():
            old = ps.owners.get(old_owner)
            if not old:
                continue
            base = page_index * psize
            lo = max(0, start - base)
            hi = max(0, min(end - base, psize))
            moving = old.clamp(lo, hi)
            if not moving:
                continue
            ps.owners[old_owner] = old.difference(moving)
            if not ps.owners[old_owner]:
                del ps.owners[old_owner]
            ps.owners.setdefault(new_owner, RangeSet())
            ps.owners[new_owner] = ps.owners[new_owner].union(moving)
            adopted_top = max(adopted_top, base + moving.span[1])
        if adopted_top:
            self._extents[new_owner] = max(
                self._extents.get(new_owner, 0), adopted_top
            )
            old_extent = self._extents.get(old_owner, 0)
            if old_extent and not self.has_dirty(old_owner):
                # Old owner surrendered everything: extent follows data.
                self._extents.pop(old_owner, None)

    def has_dirty(self, owner) -> bool:
        """Does ``owner`` have uncommitted bytes on any page?  A
        membership test: builds no range sets."""
        for ps in self._pages.values():
            if ps.owners.get(owner):
                return True
        return False

    # ------------------------------------------------------------------
    # flush (prepare): Figure 4
    # ------------------------------------------------------------------

    def flush(self, owner):
        """Generator: write the owner's dirty pages to shadow blocks and
        return the intentions list (prepare step of the commit)."""
        yield self._mutex.acquire()
        try:
            if owner in self._prepared:
                return self._prepared[owner]  # idempotent retry
            yield self._engine.charge(self._cost.instr(self._cost.commit_base_instr))
            committed = self._volume.inode(self.ino)
            intents = IntentionsList(
                vol_id=self._volume.vol_id,
                ino=self.ino,
                owner=owner,
                owner_extent=self._extents.get(owner, 0),
            )
            for page_index in sorted(self._pages):
                ps = self._pages[page_index]
                ranges = ps.owners.get(owner)
                if not ranges:
                    continue
                yield self._engine.charge(
                    self._cost.instr(self._cost.commit_per_page_instr)
                )
                base_block = committed.block_for(page_index)
                others = [o for o in ps.live_owners() if o != owner]
                if not others:
                    image = bytes(ps.working)  # Figure 4(a): direct
                else:
                    image = yield from self._merge_onto_committed(
                        page_index, base_block, ps.working, ranges
                    )  # Figure 4(b): differenced
                new_block = self._volume.alloc_block()
                yield from self._volume.write_block(
                    new_block, image, IOCategory.DATA_WRITE
                )
                intents.entries.append(
                    IntentEntry(
                        page_index=page_index,
                        new_block=new_block,
                        merge_base_block=base_block,
                        ranges=ranges.copy(),
                    )
                )
            self._prepared[owner] = intents
            return intents
        finally:
            self._mutex.release()

    def _merge_onto_committed(self, page_index, base_block, working, ranges):
        """Figure 4(b): splice ``ranges`` of ``working`` onto the
        committed image of the page."""
        base = yield from self._committed_image(page_index, base_block)
        merged = bytearray(base)
        copied = 0
        for lo, hi in ranges:
            merged[lo:hi] = working[lo:hi]
            copied += hi - lo
        yield self._engine.charge(
            self._cost.instr(
                self._cost.diff_base_instr + self._cost.diff_per_byte_instr * copied
            )
        )
        return bytes(merged)

    # ------------------------------------------------------------------
    # apply (phase two): the single-file commit mechanism
    # ------------------------------------------------------------------

    def apply(self, intents: IntentionsList):
        """Generator: atomically swing the inode to the prepared blocks.

        Safe to call twice (recovery may resend commit messages) and
        safe to call on a site that crashed after preparing -- it needs
        only the intentions list and durable storage.
        """
        yield self._mutex.acquire()
        try:
            yield self._engine.charge(self._cost.instr(self._cost.commit_inode_instr))
            inode = self._volume.inode(self.ino)
            new_size = max(inode.size, intents.owner_extent)
            npages = (
                (new_size + self._cost.page_size - 1) // self._cost.page_size
                if new_size
                else 0
            )
            old_npages = len(inode.pages)
            while len(inode.pages) < npages:
                inode.pages.append(None)
            changed_pages = set(range(old_npages, npages))  # growth
            freed = []
            for entry in intents.entries:
                current = inode.block_for(entry.page_index)
                if current == entry.new_block:
                    continue  # duplicate apply: already installed
                final_block = entry.new_block
                if current != entry.merge_base_block:
                    # Someone else committed this page between our flush
                    # and now: re-merge our ranges onto the newest image.
                    final_block = yield from self._remerge(entry, current)
                if current is not None:
                    freed.append(current)
                inode.pages[entry.page_index] = final_block
                changed_pages.add(entry.page_index)
            if changed_pages or new_size != inode.size:
                inode.size = new_size
                inode.version += 1
                yield from self._volume.install_inode(inode, changed_pages)
                for block in freed:
                    self._volume.free_block(block)
            self._size = max(self._size, new_size)
            self._finish_owner(intents.owner, intents.entries)
            return inode
        finally:
            self._mutex.release()

    def _remerge(self, entry, current_block):
        """Rebuild a prepared page against a newer committed image.

        The owner's bytes are recovered from its own shadow block (which
        holds merge-base + owner ranges), so this works even after a
        crash wiped the working buffers -- and again on a redo, which is
        why that block is freed only by :meth:`IntentionsList.free_stale`."""
        ours = yield from self._volume.read_block_cached(
            entry.new_block, IOCategory.DATA_READ
        )
        base = yield from self._committed_image(entry.page_index, current_block)
        merged = bytearray(base)
        copied = 0
        for lo, hi in entry.ranges:
            merged[lo:hi] = ours[lo:hi]
            copied += hi - lo
        yield self._engine.charge(
            self._cost.instr(
                self._cost.diff_base_instr + self._cost.diff_per_byte_instr * copied
            )
        )
        final_block = self._volume.alloc_block()
        yield from self._volume.write_block(final_block, merged, IOCategory.DATA_WRITE)
        self._volume.cache.invalidate(self._volume.vol_id, entry.new_block)
        return final_block

    def commit(self, owner):
        """Generator: one-step flush + apply (non-transaction commits and
        the single-file fast path)."""
        intents = yield from self.flush(owner)
        inode = yield from self.apply(intents)
        intents.free_stale(self._volume)  # no prepare record names them
        return inode

    # ------------------------------------------------------------------
    # abort
    # ------------------------------------------------------------------

    def abort(self, owner):
        """Generator: discard the owner's uncommitted modifications.

        Sole-owner pages revert by discarding the shadow; shared pages
        re-read the committed image and restore the aborting owner's
        ranges from it (section 5.2)."""
        yield self._mutex.acquire()
        try:
            prepared = self._prepared.pop(owner, None)
            if prepared is not None:
                inode = self._volume.inode(self.ino)
                for entry in prepared.entries:
                    if inode.block_for(entry.page_index) != entry.new_block:
                        self._volume.free_block(entry.new_block)
            committed = self._volume.inode(self.ino)
            for page_index in sorted(self._pages):
                ps = self._pages[page_index]
                ranges = ps.owners.pop(owner, None)
                if not ranges:
                    continue
                if not ps.live_owners():
                    del self._pages[page_index]  # Figure 4(a) abort: discard
                    continue
                base = yield from self._committed_image(
                    page_index, committed.block_for(page_index)
                )
                restored = 0
                for lo, hi in ranges:
                    ps.working[lo:hi] = base[lo:hi]
                    restored += hi - lo
                yield self._engine.charge(
                    self._cost.instr(
                        self._cost.diff_base_instr
                        + self._cost.diff_per_byte_instr * restored
                    )
                )
            self._extents.pop(owner, None)
            self._size = max(
                [self.committed_size] + list(self._extents.values())
            )
        finally:
            self._mutex.release()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _page_image(self, page_index):
        """Generator: current working-or-committed image of a page."""
        ps = self._pages.get(page_index)
        if ps is not None:
            return bytes(ps.working)
        block = self._volume.inode(self.ino).block_for(page_index)
        return (yield from self._committed_image(page_index, block))

    def page_span_image(self, start, end):
        """Generator: the working image of the pages covering
        [start, end), as ``(span_start, bytes)``.  Used by lock-grant
        prefetching (section 5.2)."""
        psize = self._cost.page_size
        end = min(end, self._size)
        if end <= start:
            return (start, b"")
        out = bytearray()
        lo_page = start // psize
        for page_index in range(lo_page, (end - 1) // psize + 1):
            image = yield from self._page_image(page_index)
            out += image
        return (lo_page * psize, bytes(out))

    def _committed_image(self, page_index, block):
        if block is None:
            return bytes(self._cost.page_size)  # hole or beyond old EOF
        return (yield from self._volume.read_block_cached(block, IOCategory.DATA_READ))

    def _ensure_working(self, page_index, full_overwrite):
        ps = self._pages.get(page_index)
        if ps is not None:
            return ps
        if full_overwrite or page_index * self._cost.page_size >= self.committed_size:
            working = bytearray(self._cost.page_size)
        else:
            block = self._volume.inode(self.ino).block_for(page_index)
            image = yield from self._committed_image(page_index, block)
            working = bytearray(image)
            if not self.keep_clean_copies and block is not None:
                # The buffer now holds a dirtied copy; the clean version
                # is no longer cached (measured-system behaviour).
                self._volume.cache.invalidate(self._volume.vol_id, block)
        ps = _PageState(working)
        self._pages[page_index] = ps
        return ps

    def _finish_owner(self, owner, entries):
        for entry in entries:
            ps = self._pages.get(entry.page_index)
            if ps is None:
                continue
            ps.owners.pop(owner, None)
            if not ps.live_owners():
                del self._pages[entry.page_index]
        self._extents.pop(owner, None)
        self._prepared.pop(owner, None)
