"""Causal spans: a trace tree over the simulated cluster.

A :class:`Span` is one timed phase of work -- a syscall, a lock wait, an
RPC, a disk transfer, a 2PC step -- with a start and end in *virtual*
time, a site, and a causal parent.  Spans belonging to one distributed
operation share a ``trace_id``, so a distributed commit renders as one
tree spanning the coordinator and every participant site.

The :class:`SpanRecorder` is the paper's "kernel instrumentation"
generalized: it is a pure observer.  Opening or closing a span never
schedules an event, never charges CPU, and never advances the virtual
clock, so an instrumented run is event-for-event identical to an
uninstrumented one.

Context propagation
-------------------

Each simulation process carries a stack of open spans; a span opened
without an explicit parent becomes a child of the top of the current
process's stack.  The context -- ``[track, open spans]`` -- lives in the
process's ``_obs_ctx`` slot, which the recorder alone reads and writes
(one recorder per engine), so it is freed with the process: the
recorder holds what it reports (spans, instants) and never a
``Process``.  Work outside any process shares one recorder-level
context.  Two mechanisms carry context across boundaries:

* **process spawn** -- :meth:`Engine.process` calls :meth:`inherit`, so
  a worker spawned while a span is open (a 2PC prepare worker, the
  asynchronous phase-two process) starts with that span as its ambient
  parent;
* **messages** -- the RPC layer stamps the caller's ``(trace_id,
  span_id)`` onto each request, and the server side opens its handler
  span with that tuple as the parent, linking the trees across sites.
"""

from __future__ import annotations

import itertools
from types import MappingProxyType

from repro.sim.kinds import SPANS as _SHAPES

__all__ = ["Instant", "Span", "SpanRecorder"]


class Instant:
    """A zero-duration marker event: something *observed* at one virtual
    instant rather than a timed phase -- e.g. a deadlock-detector
    wait-for snapshot.  Rendered as a Chrome-trace instant ('i') event
    so it lines up in Perfetto next to the spans it annotates."""

    __slots__ = ("name", "site_id", "tid", "ts", "attrs")

    def __init__(self, name, site_id, tid, ts, attrs):
        self.name = name
        self.site_id = site_id
        self.tid = tid
        self.ts = ts
        self.attrs = attrs

    def __repr__(self):
        return "<Instant %s @%s t=%s>" % (self.name, self.site_id, self.ts)


class Span:
    """One timed, causally linked phase of work.

    Its attributes are the span name's declared shape
    (:data:`repro.sim.kinds.SPANS`, shared by every span of the name)
    and a values tuple, which ``end`` extends with the fields only it
    supplies; a span keeps no dict of its own."""

    __slots__ = (
        "trace_id", "span_id", "parent_id", "name", "site_id", "tid",
        "start", "end", "status", "_shape", "_values", "_stack",
    )

    def __init__(self, trace_id, span_id, parent_id, name, site_id, tid,
                 start, shape, values, stack):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.site_id = site_id
        self.tid = tid          # simulation-process track, not a kernel pid
        self.start = start
        self.end = None
        self.status = None
        self._shape = shape
        self._values = values
        self._stack = stack     # the owner's open spans, until closed

    @property
    def attrs(self):
        """The shape's fields with the values recorded so far, as a
        read-only mapping rebuilt on each read."""
        values = self._values
        text = _AS_TEXT.get(self.name)
        if text is not None and values:
            values = text(*values)
        return MappingProxyType(dict(zip(self._shape, values)))

    @property
    def open(self) -> bool:
        return self.end is None

    @property
    def duration(self):
        """Elapsed virtual seconds, or None while still open."""
        if self.end is None:
            return None
        return self.end - self.start

    def __repr__(self):
        return "<Span %s trace=%s id=%s parent=%s [%s, %s)>" % (
            self.name, self.trace_id, self.span_id, self.parent_id,
            self.start, self.end,
        )


# Protocol code hands a span its raw values, so recording formats
# nothing; these spans show some of them as text when read.

def _tid_text(tid, *rest):
    return (str(tid),) + rest


def _txn_text(tid, pid, mix):
    # A transaction outside any workload mix has no ``mix`` attribute.
    return (str(tid), pid) if mix is None else (str(tid), pid, mix)


def _lock_wait_text(file_id, holder, mode, start, end, blockers):
    # ``blocked_by``: the holders whose locks queued the request, at
    # queue time (the lock table's fresh list, never changed after).
    return (str(file_id), "%s:%s" % holder, mode.name, start, end,
            tuple(sorted("%s:%s" % b for b in blockers)))


#: span name -> the function turning its raw values into its attrs.
_AS_TEXT = {
    "txn": _txn_text,
    "2pc": _tid_text,
    "2pc.prepare": _tid_text,
    "2pc.apply": _tid_text,
    "2pc.abort": _tid_text,
    "lock.wait": _lock_wait_text,
}


class SpanRecorder:
    """Collects every span up to ``capacity`` and counts the rest in
    ``dropped``; deterministic, zero virtual-time cost."""

    def __init__(self, engine, capacity=200000):
        self._engine = engine
        self.capacity = capacity
        self.spans = []           # in start order (deterministic)
        self.dropped = 0
        self._ids = itertools.count(1)
        self._traces = itertools.count(1)
        self._ntracks = 0         # tracks handed out, in first-seen order
        self._ctx = [None, []]    # [track, open spans] outside any process
        self._by_id = {}          # span_id -> Span, built lazily by get()
        self.instants = []        # Instant markers, in record order

    # ------------------------------------------------------------------
    # context plumbing
    # ------------------------------------------------------------------

    def _context(self):
        """The ``[track, open spans]`` of whatever is running now, made
        on first sight; the track is numbered on first use (a context
        :meth:`inherit` made has none yet)."""
        proc = self._engine.current_process
        if proc is None:
            ctx = self._ctx
        else:
            ctx = proc._obs_ctx
            if ctx is None:
                ctx = proc._obs_ctx = [None, []]
        if ctx[0] is None:
            ctx[0] = self._ntracks
            self._ntracks += 1
        return ctx

    def current(self):
        """The innermost open span of the current process, or None."""
        proc = self._engine.current_process
        ctx = self._ctx if proc is None else proc._obs_ctx
        if ctx is None or not ctx[1]:
            return None
        return ctx[1][-1]

    def current_context(self):
        """(trace_id, span_id) of the current span, or None -- the tuple
        the RPC layer ships inside messages."""
        span = self.current()
        if span is None:
            return None
        return (span.trace_id, span.span_id)

    def inherit(self, new_proc):
        """Called by :meth:`Engine.process`: a process spawned while a
        span is open starts with that span as its ambient parent."""
        span = self.current()
        if span is not None:
            new_proc._obs_ctx = [None, [span]]

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def _start(self, name, site_id, parent, root, values):
        """Open a span named ``name`` with its declared fields' values
        (``Observability.span``).

        ``parent`` may be another :class:`Span`, a ``(trace_id,
        span_id)`` tuple carried in from another site, or None to use
        the current process's innermost open span.  ``root=True`` forces
        a fresh trace even when an ambient span is open (used for the
        transaction root span, which *contains* the syscall that opened
        it rather than nesting under it).
        """
        ctx = self._context()
        stack = ctx[1]
        if parent is None and not root and stack:
            parent = stack[-1]
        if isinstance(parent, Span):
            trace_id, parent_id = parent.trace_id, parent.span_id
        elif parent is not None:  # (trace_id, span_id) tuple off a message
            trace_id, parent_id = parent[0], parent[1]
        else:
            trace_id, parent_id = next(self._traces), None
        span = Span(trace_id, next(self._ids), parent_id, name, site_id,
                    ctx[0], self._engine.now,
                    _SHAPES.get(name, ()), values, stack)
        stack.append(span)
        if self.capacity is not None and len(self.spans) >= self.capacity:
            self.dropped += 1
        else:
            self.spans.append(span)
        return span

    def instant(self, name, site_id=None, **attrs) -> Instant:
        """Record a zero-duration marker at the current virtual time
        (pure observer, like spans)."""
        marker = Instant(
            name=name,
            site_id=site_id,
            tid=self._context()[0],
            ts=self._engine.now,
            attrs=attrs,
        )
        self.instants.append(marker)
        return marker

    def _end(self, span, status, values):
        """Close a span (``Observability.end``; idempotent, None is
        accepted and ignored), appending the fields only ``end``
        supplies."""
        if span is None or span.end is not None:
            return
        span.end = self._engine.now
        if status is not None:
            span.status = status
        if values:
            span._values += values
        # A closed span lets go of its owner's stack, so a retained
        # span keeps nothing of a finished process alive.
        stack = span._stack
        span._stack = None
        if stack:
            # Spans close innermost-first in the overwhelming case, so
            # test the top before falling back to a linear remove (an
            # interrupted process can close an outer span early).
            if stack[-1] is span:
                stack.pop()
            else:
                try:
                    stack.remove(span)
                except ValueError:
                    pass

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def get(self, span_id):
        """A recorded span by id (dropped spans are not retrievable).
        The index is built here, not per span on the recording path,
        and rebuilt whenever the span list changed length."""
        if len(self._by_id) != len(self.spans):
            self._by_id = {span.span_id: span for span in self.spans}
        return self._by_id.get(span_id)

    def select(self, name=None, trace_id=None, site_id=None):
        """Recorded spans matching every given filter, in start order."""
        out = []
        for span in self.spans:
            if name is not None and span.name != name:
                continue
            if trace_id is not None and span.trace_id != trace_id:
                continue
            if site_id is not None and span.site_id != site_id:
                continue
            out.append(span)
        return out

    def children(self, span):
        """Recorded direct children of ``span``, in start order."""
        return [s for s in self.spans if s.parent_id == span.span_id]

    def trace_ids(self):
        return sorted({s.trace_id for s in self.spans})

    def __len__(self):
        return len(self.spans)
