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

Tail-based retention sampling
-----------------------------

At the scaling tier, retaining every span is a memory blowup; retaining
a uniform random subset loses exactly the traces worth reading.  A
:class:`TailSampler` (attached via
``Observability.attach_sampler(head_rate=...)``) buffers each trace
until it completes and then keeps **whole trees** for (a) a
deterministic head-sampled fraction (txn-id hash), (b) transactions
pinned by the SLO tracker, the deadlock view, or a monitor
violation, and (c) the slowest-percentile roots against a streaming
duration sketch.  Sampling touches span *retention* only: span/trace id
allocation, latency sketches, timeline gauges and every other
virtual-time metric are byte-identical with sampling on or off.
"""

from __future__ import annotations

import itertools
import zlib
from types import MappingProxyType

__all__ = ["Instant", "Span", "SpanRecorder", "TailSampler"]


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

    While the span is open its attributes are a live dict in ``_attrs``.
    When the recorder closes it, ``_attrs`` becomes the key tuple (one
    shape shared by every span with the same keys) and ``_values`` the
    matching values, so a retained span carries no dict of its own."""

    __slots__ = (
        "trace_id", "span_id", "parent_id", "name", "site_id", "tid",
        "start", "end", "status", "_attrs", "_values", "_stack",
    )

    def __init__(self, trace_id, span_id, parent_id, name, site_id, tid,
                 start, attrs):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.site_id = site_id
        self.tid = tid          # simulation-process track, not a kernel pid
        self.start = start
        self.end = None
        self.status = None
        self._attrs = attrs
        self._values = None     # set when the recorder closes the span
        self._stack = None

    @property
    def attrs(self):
        """The live dict while open; a read-only mapping, same keys in
        the same order, once the recorder has closed the span."""
        values = self._values
        if values is None:
            return self._attrs
        return MappingProxyType(dict(zip(self._attrs, values)))

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


class TailSampler:
    """Tail-based trace-retention policy for a :class:`SpanRecorder`.

    Spans are buffered per ``trace_id`` while the trace is live; once
    its root closes and no buffered span remains open, the whole tree
    is either retained or freed:

    * **head sample** -- crc32 of the root's transaction id (falling
      back to the trace id) below ``head_rate`` keeps a deterministic,
      run-order-independent fraction of all traces;
    * **must-keep marks** -- :meth:`mark` pins a trace regardless of
      the hash; the SLO tracker (bound-violating samples), the deadlock
      detector (victim + cycle members) and the monitor hub (any
      violation) call it while the trace is still live;
    * **slowest percentile** -- root durations feed streaming
      :class:`~repro.obs.sketch.QuantileSketch` windows **per root
      name**; once ``min_slow_count`` same-name roots have closed, any
      root strictly above the ``slow_percentile`` duration of its own
      population is kept.  Per-name matters: transaction roots live in
      seconds while setup-phase roots (opens, populate writes) cluster
      at microseconds, and one pooled threshold would land between the
      modes and keep every transaction as "slow".  The threshold is
      computed over a **rotating window** (the last completed
      ``slow_window`` same-name roots) rather than all of history: a
      closed-loop workload ramping into saturation would otherwise
      leave the all-time p99 permanently below the current latency
      regime and keep nearly every late root.  A per-name retention
      budget backstops the threshold: at most ``1 -
      slow_percentile/100`` of closed roots are ever kept as slow, so
      even a monotone latency ramp -- where every root beats every
      earlier one -- cannot blow the memory bound.

    Everything is deterministic (hashes of stable ids, virtual-time
    durations), so sampled runs are exactly reproducible.
    """

    __slots__ = ("recorder", "head_rate", "slow_percentile",
                 "min_slow_count", "slow_window", "_durations", "_window",
                 "_slow_seen", "_slow_kept", "_pending", "_open",
                 "_roots", "_decided", "_marked", "_buffered",
                 "kept_traces", "dropped_traces", "dropped_spans",
                 "late_marks", "peak_retained", "peak_buffered")

    def __init__(self, recorder, head_rate=0.05, slow_percentile=99.0,
                 min_slow_count=50, slow_window=256):
        from .sketch import QuantileSketch

        self.recorder = recorder
        self.head_rate = float(head_rate)
        self.slow_percentile = float(slow_percentile)
        self.min_slow_count = int(min_slow_count)
        self.slow_window = int(slow_window)
        # Per root name: _durations[name] is the last *completed*
        # window (the threshold source); _window[name] the one filling.
        self._durations = {}
        self._window = {}
        self._slow_seen = {}   # name -> closed roots fed to the window
        self._slow_kept = {}   # name -> roots kept via the slow rule
        self._pending = {}   # trace_id -> [buffered spans, start order]
        self._open = {}      # trace_id -> open buffered-span count
        self._roots = {}     # trace_id -> root span (parent_id None)
        self._decided = {}   # trace_id -> bool (keep)
        self._marked = set() # trace_ids pinned by mark()
        self._buffered = 0   # total buffered spans across traces
        self.kept_traces = 0
        self.dropped_traces = 0
        self.dropped_spans = 0
        self.late_marks = 0
        self.peak_retained = 0   # high-water of the retained archive
        self.peak_buffered = 0   # high-water of the in-flight buffer

    # -- recorder hooks -------------------------------------------------

    def _note_peak(self):
        # Two separate high-water marks: the retained archive is what
        # grows with run length (the memory sampling bounds), while the
        # buffer is transient working state bounded by live-trace
        # concurrency -- the open-span bookkeeping any tracer carries.
        retained = len(self.recorder.spans)
        if retained > self.peak_retained:
            self.peak_retained = retained
        if self._buffered > self.peak_buffered:
            self.peak_buffered = self._buffered

    def admit(self, span):
        """Route a freshly opened span: straight to the recorder when
        its trace is already decided keep, freed when decided drop,
        buffered otherwise."""
        trace = span.trace_id
        decided = self._decided.get(trace)
        if decided is True:
            self.recorder._retain(span)
        elif decided is False:
            self.dropped_spans += 1
            return
        else:
            spans = self._pending.get(trace)
            if spans is None:
                spans = self._pending[trace] = []
            spans.append(span)
            self._buffered += 1
            self._open[trace] = self._open.get(trace, 0) + 1
            if span.parent_id is None:
                self._roots[trace] = span
        self._note_peak()

    def note_end(self, span):
        """Called on every span close; finalizes the trace when its
        root has closed and no buffered span remains open."""
        trace = span.trace_id
        if trace in self._decided:
            return
        remaining = self._open.get(trace)
        if remaining is None:
            return
        self._open[trace] = remaining - 1
        root = self._roots.get(trace)
        if root is not None and root.end is not None \
                and self._open[trace] <= 0:
            self._finalize(trace)

    # -- must-keep marks ------------------------------------------------

    def mark(self, trace_id):
        """Pin a trace for retention (SLO violation, deadlock
        participant, monitor violation).  A mark after the trace was
        already freed is counted in ``late_marks``."""
        if trace_id is None:
            return
        if self._decided.get(trace_id) is False:
            self.late_marks += 1
            return
        self._marked.add(trace_id)

    # -- decision -------------------------------------------------------

    @staticmethod
    def _head_key(root, trace_id):
        tid = None
        if root is not None:
            tid = root.attrs.get("tid")
        return str(tid) if tid is not None else "trace:%s" % trace_id

    def _head_keep(self, root, trace_id):
        digest = zlib.crc32(self._head_key(root, trace_id).encode("ascii"))
        return digest / 4294967296.0 < self.head_rate

    def _slow_keep(self, root):
        if root is None or root.end is None:
            return False
        from .sketch import QuantileSketch

        duration = root.end - root.start
        # Threshold BEFORE observing this root, against its own name's
        # population, from the last completed window (the filling one
        # bootstraps the very first window).  Strictly above: simulated
        # durations tie heavily, and a degenerate window where p99 ==
        # the modal duration must not keep the whole body as "slow".
        done = self._durations.get(root.name)
        window = self._window.get(root.name)
        if window is None:
            window = self._window[root.name] = QuantileSketch(rel_err=0.01)
        threshold = None
        if done is not None and done.count >= self.min_slow_count:
            threshold = done.percentile(self.slow_percentile)
        elif window.count >= self.min_slow_count:
            threshold = window.percentile(self.slow_percentile)
        window.observe(duration)
        if window.count >= self.slow_window:
            self._durations[root.name] = window
            self._window[root.name] = QuantileSketch(rel_err=0.01)
        seen = self._slow_seen.get(root.name, 0) + 1
        self._slow_seen[root.name] = seen
        # The sketch answers within ~1% relative error, so a tie can
        # read as fractionally "above" p99; the margin keeps threshold
        # noise from burning the slow budget on modal-duration roots.
        if threshold is None or duration <= threshold * 1.03:
            return False
        # Retention budget: never keep more than the slow fraction of
        # this name's closed roots, whatever the threshold says.
        kept = self._slow_kept.get(root.name, 0)
        budget = (100.0 - self.slow_percentile) / 100.0 * seen
        if kept + 1 > budget:
            return False
        self._slow_kept[root.name] = kept + 1
        return True

    def _finalize(self, trace_id):
        spans = self._pending.pop(trace_id, [])
        self._open.pop(trace_id, None)
        root = self._roots.pop(trace_id, None)
        self._buffered -= len(spans)
        # The slow check runs first unconditionally so every closed
        # root feeds its name's duration window -- head-kept and marked
        # roots belong in the population the threshold is drawn from.
        slow = self._slow_keep(root)
        keep = (
            trace_id in self._marked
            or self._head_keep(root, trace_id)
            or slow
        )
        self._decided[trace_id] = keep
        if keep:
            self.kept_traces += 1
            for span in spans:
                self.recorder._retain(span)
            self._note_peak()
        else:
            self.dropped_traces += 1
            self.dropped_spans += len(spans)

    def flush(self):
        """Decide every still-buffered trace (end of run: incomplete
        traces get the same keep rules, minus the slow check when the
        root never closed), then restore start order."""
        for trace_id in sorted(self._pending):
            self._finalize(trace_id)
        self.recorder.spans.sort(key=lambda s: s.span_id)

    # -- reporting ------------------------------------------------------

    def summary(self) -> dict:
        """The ``spans.sampling`` report payload / trace-file header."""
        return {
            "enabled": True,
            "head_rate": self.head_rate,
            "slow_percentile": self.slow_percentile,
            "kept_traces": self.kept_traces,
            "dropped_traces": self.dropped_traces,
            "dropped_spans": self.dropped_spans,
            "marked": len(self._marked),
            "late_marks": self.late_marks,
            "peak_retained": self.peak_retained,
            "peak_buffered": self.peak_buffered,
        }


class SpanRecorder:
    """Collects spans; bounded, deterministic, zero virtual-time cost."""

    def __init__(self, engine, capacity=200000):
        self._engine = engine
        self.capacity = capacity
        self.sampler = None       # TailSampler when attach_sampler() ran
        self.spans = []           # in start order (deterministic)
        self.dropped = 0
        self._ids = itertools.count(1)
        self._traces = itertools.count(1)
        self._ntracks = 0         # tracks handed out, in first-seen order
        self._ctx = [None, []]    # [track, open spans] outside any process
        self._by_id = {}          # span_id -> Span, built lazily by get()
        self._shapes = {}         # attrs key tuple -> itself, shared
        self.instants = []        # Instant markers, in record order

    # ------------------------------------------------------------------
    # context plumbing
    # ------------------------------------------------------------------

    def _context(self):
        """The ``[track, open spans]`` of whatever is running now, made
        on first sight; the track is numbered on first use."""
        proc = self._engine.current_process
        if proc is None:
            return self._ctx
        ctx = proc._obs_ctx
        if ctx is None:
            ctx = proc._obs_ctx = [None, []]
        return ctx

    def _track(self, ctx):
        track = ctx[0]
        if track is None:
            track = ctx[0] = self._ntracks
            self._ntracks = track + 1
        return track

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

    def start(self, name, site_id=None, parent=None, root=False, **attrs) -> Span:
        """Open a span.

        ``parent`` may be another :class:`Span`, a ``(trace_id,
        span_id)`` tuple carried in from another site, or None to use
        the current process's innermost open span.  ``root=True`` forces
        a fresh trace even when an ambient span is open (used for the
        transaction root span, which *contains* the syscall that opened
        it rather than nesting under it).
        """
        return self._start(name, site_id, parent, root, attrs)

    def _start(self, name, site_id, parent, root, attrs):
        # :meth:`start` with the attributes already in a dict, so
        # ``Observability.span`` hands its ``**attrs`` over unpacked.
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
        span = Span(
            trace_id, next(self._ids), parent_id, name, site_id,
            self._track(ctx), self._engine.now, attrs,
        )
        span._stack = stack
        stack.append(span)
        if self.sampler is not None:
            self.sampler.admit(span)
        elif self.capacity is not None and len(self.spans) >= self.capacity:
            self.dropped += 1
        else:
            self.spans.append(span)
        return span

    def _retain(self, span):
        """Commit a sampler-kept span to the recorded list (same
        capacity bound as the unsampled path)."""
        if self.capacity is not None and len(self.spans) >= self.capacity:
            self.dropped += 1
        else:
            self.spans.append(span)

    def instant(self, name, site_id=None, **attrs) -> Instant:
        """Record a zero-duration marker at the current virtual time
        (pure observer, like spans)."""
        marker = Instant(
            name=name,
            site_id=site_id,
            tid=self._track(self._context()),
            ts=self._engine.now,
            attrs=attrs,
        )
        self.instants.append(marker)
        return marker

    def end(self, span, status=None, **attrs):
        """Close a span (idempotent; None is accepted and ignored)."""
        self._end(span, status, attrs)

    def _end(self, span, status, attrs):
        if span is None or span.end is not None:
            return
        span.end = self._engine.now
        if status is not None:
            span.status = status
        live = span._attrs
        if attrs:
            live.update(attrs)
        # Compact: the dict becomes a shared key shape plus a values
        # tuple, which is what every retained span then keeps.
        keys = tuple(live)
        span._attrs = self._shapes.setdefault(keys, keys)
        span._values = tuple(live.values())
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
        if self.sampler is not None:
            self.sampler.note_end(span)

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------

    def attach_sampler(self, head_rate=0.05, slow_percentile=99.0,
                       min_slow_count=50, slow_window=256) -> TailSampler:
        """Enable tail-based trace retention (idempotent)."""
        if self.sampler is None:
            self.sampler = TailSampler(
                self, head_rate=head_rate, slow_percentile=slow_percentile,
                min_slow_count=min_slow_count, slow_window=slow_window,
            )
        return self.sampler

    def current_trace(self):
        """The trace id of the current process's innermost open span."""
        span = self.current()
        return span.trace_id if span is not None else None

    def mark_trace(self, trace_id=None):
        """Pin a trace (default: the current one) for retention; no-op
        without a sampler, so callers need no guards."""
        if self.sampler is None:
            return
        if trace_id is None:
            trace_id = self.current_trace()
        self.sampler.mark(trace_id)

    def flush_sampler(self):
        """Finalize buffered traces before the spans are read (no-op
        without a sampler)."""
        if self.sampler is not None:
            self.sampler.flush()

    def peak_retained(self):
        """The high-water mark of the retained span archive (without a
        sampler the span list only grows, so it is simply its size)."""
        if self.sampler is not None:
            return self.sampler.peak_retained
        return len(self.spans)

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
