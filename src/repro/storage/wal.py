"""Write-ahead-logging baseline.

Section 6 of the paper weighs its shadow-page/intentions-list design
against "commit log" mechanisms and cites an operation-counting analysis
([Weinstein85]).  To reproduce that comparison we provide a redo-logging
file-update mechanism with the same owner-oriented API shape as
:class:`~repro.storage.shadow.OpenFileState`:

* uncommitted writes stay in core (no-steal);
* commit forces the owner's after-images to the volume's redo log --
  I/O cost proportional to the *bytes* modified, not the pages touched;
* data pages are written **in place** later, at checkpoint, so a hot
  page repeatedly committed costs one data I/O per checkpoint instead of
  one shadow write (plus inode update) per commit;
* physical contiguity is preserved (pages never move), the property the
  paper concedes to logging.

Checkpoint honours record boundaries the same way the shadow design
does: only committed ranges are spliced onto the on-disk image, so a
neighbour's uncommitted bytes never reach disk.
"""

from __future__ import annotations

from repro.rangeset import RangeSet

from .disk import IOCategory
from .logfile import LogFile

__all__ = ["WalFile"]

_RECORD_HEADER_BYTES = 24  # (ino, page, range) framing per logged range


class WalFile:
    """Redo-WAL update state of one file at its storage site."""

    def __init__(self, engine, cost, volume, ino, log=None):
        self._engine = engine
        self._cost = cost
        self._volume = volume
        self.ino = ino
        self.log = log if log is not None else LogFile(
            engine, cost, volume, name="wal.%s" % ino, optimized=True
        )
        self._pages = {}          # page_index -> bytearray (working image)
        self._owners = {}         # page_index -> {owner: RangeSet}
        self._committed_pending = {}  # page_index -> RangeSet awaiting checkpoint
        # Snapshot of committed-but-uncheckpointed bytes.  The working
        # image cannot serve as the committed image: a later uncommitted
        # write to the same range would leak into a checkpoint (steal) or
        # an abort would clobber the committed bytes with the stale disk
        # image.  Only the bytes inside ``_committed_pending`` are valid.
        self._committed_images = {}   # page_index -> bytearray
        self._size = volume.inode(ino).size
        self._extents = {}

    @property
    def size(self):
        return self._size

    def pending_bytes(self):
        """Committed bytes awaiting checkpoint."""
        return sum(hi - lo for ranges in self._committed_pending.values()
                   for lo, hi in ranges)

    # ------------------------------------------------------------------
    # read / write (same visibility semantics as the shadow design)
    # ------------------------------------------------------------------

    def read(self, offset, nbytes):
        """Generator: read from the working image (same semantics as the shadow design)."""
        end = min(offset + nbytes, self._size)
        if end <= offset:
            return b""
        psize = self._cost.page_size
        out = bytearray()
        for page_index in range(offset // psize, (end - 1) // psize + 1):
            yield self._engine.charge(
                self._cost.instr(self._cost.read_write_instructions)
            )
            image = yield from self._image(page_index)
            lo = max(offset, page_index * psize) - page_index * psize
            hi = min(end, (page_index + 1) * psize) - page_index * psize
            out += image[lo:hi]
        return bytes(out)

    def write(self, owner, offset, data):
        """Generator: buffer ``owner``'s write in core (no-steal)."""
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
            working = yield from self._ensure_working(page_index)
            lo = pos - page_index * psize
            hi = min(end - page_index * psize, psize)
            working[lo:hi] = data[pos - offset : pos - offset + (hi - lo)]
            owners = self._owners.setdefault(page_index, {})
            owners.setdefault(owner, RangeSet()).add(lo, hi)
            pos = page_index * psize + hi
        self._size = max(self._size, end)
        self._extents[owner] = max(self._extents.get(owner, 0), end)

    # ------------------------------------------------------------------
    # commit / abort
    # ------------------------------------------------------------------

    def commit(self, owner):
        """Generator: force the owner's after-images to the redo log.

        Returns the number of log pages written.  Data pages stay dirty
        in core until :meth:`checkpoint`.
        """
        obs = self._engine.obs
        started = self._engine.now
        span = obs.span("wal.commit", site_id=self._volume.disk.site,
                        ino=self.ino, owner=str(owner))
        log_bytes = 0
        records = []
        for page_index in sorted(self._owners):
            ranges = self._owners[page_index].pop(owner, None)
            if not ranges:
                continue
            working = self._pages[page_index]
            image = self._committed_images.setdefault(
                page_index, bytearray(self._cost.page_size)
            )
            for lo, hi in ranges:
                log_bytes += (hi - lo) + _RECORD_HEADER_BYTES
                image[lo:hi] = working[lo:hi]
                records.append(
                    {
                        "page_index": page_index,
                        "lo": lo,
                        "hi": hi,
                        "after": bytes(working[lo:hi]),
                    }
                )
            pending = self._committed_pending.setdefault(page_index, RangeSet())
            self._committed_pending[page_index] = pending.union(ranges)
        extent = self._extents.pop(owner, 0)
        # Force the log: one I/O per log page, plus the commit record
        # (which also carries the owner's new file size).
        log_pages = max(1, -(-log_bytes // self._cost.page_size)) if records else 1
        for _ in range(log_pages):
            yield from self.log.append({"type": "redo", "owner": owner})
        yield from self.log.append(
            {"type": "commit", "owner": owner, "extent": extent, "records": records}
        )
        yield self._engine.charge(self._cost.instr(self._cost.commit_base_instr))
        obs.end(span, status="ok", log_pages=log_pages + 1)
        obs.observe(self._volume.disk.site, "wal.commit",
                    self._engine.now - started)
        obs.event("wal.commit", site_id=self._volume.disk.site, wal=self,
                  owner=str(owner), records=records, extent=extent)
        return log_pages + 1

    def abort(self, owner):
        """Generator: restore the owner's ranges from the on-disk image
        and any already-committed pending ranges of other owners."""
        restored = {}  # page_index -> [(lo, hi)] rolled back (announced)
        for page_index in sorted(self._owners):
            ranges = self._owners[page_index].pop(owner, None)
            if not ranges:
                continue
            restored[page_index] = list(ranges.runs)
            working = self._pages[page_index]
            base = yield from self._disk_image(page_index)
            committed = self._committed_pending.get(page_index)
            image = self._committed_images.get(page_index)
            for lo, hi in ranges:
                working[lo:hi] = base[lo:hi]
                if committed is not None and image is not None:
                    # Bytes committed since the disk image was last
                    # checkpointed must survive this abort.
                    for clo, chi in committed.clamp(lo, hi):
                        working[clo:chi] = image[clo:chi]
        self._extents.pop(owner, None)
        # Committed extents that have not been checkpointed yet live
        # only in the log; they survive the abort just like their bytes.
        committed_extent = max([self._volume.inode(self.ino).size] + [
            e["extent"] for e in self.log.scan() if e.get("type") == "commit"
        ] + [0])
        self._size = max([committed_extent] + list(self._extents.values()))
        # ``restored`` names exactly the byte ranges this abort rolled
        # back, where committed bytes must have survived (the no-steal
        # rule).
        self._engine.obs.event("wal.abort", site_id=self._volume.disk.site,
                               wal=self, owner=str(owner), restored=restored)

    def checkpoint(self):
        """Generator: write committed ranges in place; returns pages written.

        Only committed bytes are spliced onto the on-disk image so
        uncommitted neighbours are preserved (no-steal discipline)."""
        written = 0
        inode = self._volume.inode(self.ino)
        committed_size = max([inode.size] + [
            e["extent"] for e in self.log.scan() if e.get("type") == "commit"
        ])
        psize = self._cost.page_size
        old_npages = len(inode.pages)
        npages = (committed_size + psize - 1) // psize
        while len(inode.pages) < npages:
            inode.pages.append(None)
        new_pointer_pages = set(range(old_npages, npages))
        for page_index in sorted(self._committed_pending):
            ranges = self._committed_pending.pop(page_index)
            # Splice from the committed snapshot, not the working image:
            # the working bytes may already hold a later *uncommitted*
            # write, which must never reach disk (no-steal).
            image = self._committed_images.pop(page_index)
            base = yield from self._disk_image(page_index)
            merged = bytearray(base)
            for lo, hi in ranges:
                merged[lo:hi] = image[lo:hi]
            block = inode.block_for(page_index)
            if block is None:
                block = self._volume.alloc_block()
                inode.pages[page_index] = block
                new_pointer_pages.add(page_index)
            yield from self._volume.write_block(block, merged, IOCategory.DATA_WRITE)
            written += 1
            if not self._owners.get(page_index):
                self._pages.pop(page_index, None)
                self._owners.pop(page_index, None)
        if new_pointer_pages or inode.size != committed_size:
            inode.size = committed_size
            inode.version += 1
            yield from self._volume.install_inode(inode, new_pointer_pages)
        # The checkpoint is a truncation point: everything it wrote in
        # place no longer needs replaying.
        self.log.remove_where(lambda e: e.get("type") in ("redo", "commit"))
        self._engine.obs.event("wal.checkpoint",
                               site_id=self._volume.disk.site, wal=self,
                               pages=written)
        return written

    def recover(self):
        """Generator: redo recovery after a crash.

        Uncheckpointed committed after-images are replayed from the log
        onto the on-disk pages; uncommitted in-core state was volatile
        and simply no longer exists.  Returns the number of records
        replayed.  Idempotent: replaying twice produces the same state.
        """
        replayed = 0
        inode = self._volume.inode(self.ino)
        psize = self._cost.page_size
        committed_size = inode.size
        images = {}  # page_index -> bytearray being rebuilt
        replayed_records = []
        for entry in self.log.scan():
            if entry.get("type") != "commit":
                continue
            committed_size = max(committed_size, entry.get("extent", 0))
            for rec in entry["records"]:
                page_index = rec["page_index"]
                if page_index not in images:
                    base = yield from self._disk_image(page_index)
                    images[page_index] = bytearray(base)
                images[page_index][rec["lo"]:rec["hi"]] = rec["after"]
                replayed_records.append(rec)
                replayed += 1
        npages = (committed_size + psize - 1) // psize
        old_npages = len(inode.pages)
        while len(inode.pages) < npages:
            inode.pages.append(None)
        changed = set(range(old_npages, npages))
        for page_index in sorted(images):
            block = inode.block_for(page_index)
            if block is None:
                block = self._volume.alloc_block()
                inode.pages[page_index] = block
                changed.add(page_index)
            yield from self._volume.write_block(
                block, bytes(images[page_index]), IOCategory.DATA_WRITE
            )
        if changed or inode.size != committed_size:
            inode.size = committed_size
            inode.version += 1
            yield from self._volume.install_inode(inode, changed)
        self._size = max(self._size, committed_size)
        self._engine.obs.event("wal.recover", site_id=self._volume.disk.site,
                               wal=self, records=replayed_records)
        return replayed

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _image(self, page_index):
        working = self._pages.get(page_index)
        if working is not None:
            return bytes(working)
        return (yield from self._disk_image(page_index))

    def _disk_image(self, page_index):
        block = self._volume.inode(self.ino).block_for(page_index)
        if block is None:
            return bytes(self._cost.page_size)
        return (yield from self._volume.read_block_cached(block, IOCategory.DATA_READ))

    def _ensure_working(self, page_index):
        working = self._pages.get(page_index)
        if working is None:
            image = yield from self._disk_image(page_index)
            working = bytearray(image)
            self._pages[page_index] = working
        return working
