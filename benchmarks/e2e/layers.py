"""Outside-in per-layer measurement for the end-to-end benchmark.

The layers are the ``src/repro`` packages.  Nothing in ``src/`` is
edited; three instruments look at a run from outside, each doing the
one job it is exact at:

:class:`Sampler` -- **host time**.  A 500 Hz interval timer interrupts an
  *unpatched* pass and notes the Python stack.  A sample belongs to the
  layer of its innermost frame; ``rangeset``, ``core/ids``, ``config``
  and ``sim`` helpers called from a layer's code (timeouts, events,
  resources) belong to the layer that called them, and ``sim`` keeps
  what runs under nothing else: the dispatch loop and process resume.
  A layer's ``self_s`` is its share of the samples times the untraced
  ``wall_s``.  Sampling slows the pass by about 4 % (walking a stack
  makes CPython materialise its frames), spread over whatever it
  interrupts, so it moves no time between layers.

:class:`Tracer` -- **counts, virtual time, spans**.  For one more pass
  the layers' *public* functions are replaced by wrappers.  Every
  wrapper counts its calls.  Coarse boundaries (syscall, lock, RPC, RPC
  handler, 2PC step, disk I/O, log force) come back inside
  :class:`SpanGen`, a transparent iterator that records a span: name,
  host start/end, virtual start/end, parent = the enclosing span,
  ``txn`` = the transaction id.  Spans are kept in memory, capped, and
  written out by the caller when the run ends.  Hot inner calls
  (``LockTable.conflicts``) are only counted.

:class:`Profiler` -- **the cross-check**.  cProfile's self time per
  function, rolled up by the same rule as the sampler's.

Why the wrappers do not also time the layers: the first version of this
file did (a stack of layers, ``perf_counter`` at every wrapper entry and
exit, self time = span minus children).  With every boundary wrapped a
process resume crosses three to four Python-level wrappers where
``yield from`` had a C fast path, the traced pass ran 1.3-2.4x slower,
and the slowdown fell on the layers with the most generator frames: on
``oltp_hot`` it put ``locus`` at 17 % and ``locking`` at 37 % of host
time where the sampler and cProfile both say 8 % and 54-56 %.  Measuring
the wrapper's own bookkeeping apart and calibrating the rest moved
``locking`` to 40 %.  A profiler that needs that much correcting is not
the one to gate claims on.
"""

from __future__ import annotations

import cProfile
import importlib
import pstats
import signal
import sys
from time import perf_counter
from types import GeneratorType

__all__ = ["LAYERS", "Sampler", "Tracer", "SpanGen", "install", "Profiler"]

#: The ``src/repro`` packages, in the order the report prints them.
LAYERS = ("sim", "locus", "fs", "workloads", "core", "locking", "net",
          "storage", "obs")

#: Helper modules every layer calls; their time goes to the caller.
_FLOATING = ("repro/rangeset.py", "repro/core/ids.py", "repro/config.py")

#: Every ``LockTable.conflicts`` call is counted; one in this many also
#: reads ``live_count()``, the size of the table it is about to scan.
TABLE_SAMPLE_EVERY = 16

#: Spans kept in memory per traced pass; the rest are only counted.
SPAN_CAP = 20000


def _package_of(filename):
    """``.../repro/locking/table.py`` -> ``locking``; None outside the
    layers (benchmark, stdlib, the floating helper modules)."""
    filename = filename.replace("\\", "/")
    if filename.endswith(_FLOATING):
        return None
    parts = filename.split("/")
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == "repro":
            return parts[i + 1] if parts[i + 1] in LAYERS else None
    return None


def _is_dispatch(filename, name):
    """The engine's public dispatch entry points: what runs under them
    and under no layer is the engine's own work."""
    return name in ("run", "step") and filename.replace(
        "\\", "/").endswith("repro/sim/engine.py")


def _bill(frames_innermost_first):
    """The layer a stack of ``(layer, is_dispatch)`` frames is billed
    to: the innermost layer that is not ``sim``, looking no further out
    than the dispatch loop (who *called* the engine is beside the
    point); ``sim`` when the engine's own code is all there is; None
    when no layer is on the stack at all."""
    seen_sim = False
    for layer, is_dispatch in frames_innermost_first:
        if is_dispatch:
            return "sim"
        if layer == "sim":
            seen_sim = True
        elif layer is not None:
            return layer
    return "sim" if seen_sim else None


# ----------------------------------------------------------------------
# host time
# ----------------------------------------------------------------------

class Sampler:
    """Statistical host-time attribution (see the module docstring).

    ``start()`` / ``stop()`` bracket each measured ``driver.run()``; the
    handler only copies the stack's code objects, classification happens
    afterwards in :meth:`shares`."""

    def __init__(self, interval=0.002):
        self.interval = interval
        self.stacks = {}        # (code, ...) innermost first -> samples
        self._previous = None

    def _on_tick(self, _signum, frame):
        stack = []
        while frame is not None:
            stack.append(frame.f_code)
            frame = frame.f_back
        key = tuple(stack)
        self.stacks[key] = self.stacks.get(key, 0) + 1

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def samples(self) -> int:
        return sum(self.stacks.values())

    def shares(self) -> dict:
        """Fraction of the samples per layer, plus ``unattributed`` (no
        layer anywhere on the stack) and two parts reported on their
        own *and* inside their layer: ``locus.handler`` (``locus`` code
        running under an RPC serve process) and ``locking.deadlock``
        (``locking`` code exporting wait-for edges or searching the
        graph)."""
        frame_of = {}           # code -> (layer, is_dispatch)
        counts = dict.fromkeys(
            LAYERS + ("unattributed", "locus.handler", "locking.deadlock"), 0)
        for stack, n in self.stacks.items():
            for code in stack:
                if code not in frame_of:
                    frame_of[code] = (
                        _package_of(code.co_filename),
                        _is_dispatch(code.co_filename, code.co_name))
            layer = _bill(frame_of[code] for code in stack)
            counts[layer or "unattributed"] += n
            if layer == "locus" and any(
                    c.co_name == "_serve" and frame_of[c][0] == "net"
                    for c in stack):
                counts["locus.handler"] += n
            elif layer == "locking" and any(
                    c.co_name in ("wait_edges", "wait_edge_details")
                    or c.co_filename.endswith("locking/deadlock.py")
                    for c in stack):
                counts["locking.deadlock"] += n
        total = self.samples
        return {name: n / total if total else 0.0
                for name, n in counts.items()}


# ----------------------------------------------------------------------
# counts, virtual time, spans
# ----------------------------------------------------------------------

class Span:
    """One coarse-boundary call: where it sat on both clocks."""

    __slots__ = ("id", "name", "txn", "parent", "host_start", "host_end",
                 "virt_start", "virt_end", "status", "resumes", "txn_of",
                 "args", "on_finish")

    def __init__(self, span_id, name, txn_of, args, on_finish):
        self.id = span_id
        self.name = name
        self.txn = None
        self.parent = None        # the enclosing Span, if any
        self.host_start = None
        self.host_end = None
        self.virt_start = None
        self.virt_end = None
        self.status = None
        self.resumes = 0
        self.txn_of = txn_of      # reads the transaction id off ``args``
        self.args = args
        self.on_finish = on_finish

    def read_txn(self):
        if self.txn is None and self.txn_of is not None:
            try:
                self.txn = self.txn_of(*self.args)
            except (TypeError, AttributeError, IndexError):
                pass

    def row(self, host_zero=0.0) -> dict:
        return {
            "id": self.id,
            "parent": self.parent.id if self.parent is not None else None,
            "name": self.name,
            "txn": None if self.txn is None else str(self.txn),
            "host_start_s": self.host_start - host_zero,
            "host_end_s": self.host_end - host_zero,
            "virt_start_s": self.virt_start,
            "virt_end_s": self.virt_end,
            "status": self.status,
        }


class Tracer:
    """The counters and the spans.

    Wrappers count all the time they are installed; :meth:`start` /
    :meth:`stop` bracket the measured ``driver.run()`` and add only what
    happened in between to :attr:`counts`, and spans are kept only
    then, so cluster set-up between cells stays out."""

    def __init__(self):
        self.calls = {}         # "layer.function" -> calls, running
        self.counts = {}        # key -> calls inside start()/stop()
        self.vtimes = {}        # span name -> [virtual durations]
        self.table_samples = []  # sampled LockTable.live_count() values
        self.spans = []         # finished Span objects, at most SPAN_CAP
        self.spans_dropped = 0
        self.spans_started = 0
        self.missing = []       # patch targets this tree no longer has
        self.recording = False
        self.engine = None      # the running cell's engine (virtual now)
        self.span_stack = [None]
        self._calls0 = None

    def start(self, engine):
        self.engine = engine
        self._calls0 = dict(self.calls)
        self.recording = True

    def stop(self):
        self.recording = False
        for key, calls in self.calls.items():
            self.counts[key] = (self.counts.get(key, 0) + calls
                                - self._calls0.get(key, 0))
        self.engine = None

    def span_rows(self) -> list:
        zero = min((s.host_start for s in self.spans), default=0.0)
        return [s.row(zero) for s in self.spans]

    def _begin(self, span):
        span.host_start = perf_counter()
        span.virt_start = self.engine.now if self.engine is not None else 0.0
        span.parent = self.span_stack[-1]
        span.read_txn()

    def _finish(self, span, exc):
        """Close ``span``; ``exc`` is what ended its generator."""
        span.host_end = perf_counter()
        span.virt_end = self.engine.now if self.engine is not None else 0.0
        returned = exc.__class__ is StopIteration
        span.status = "ok" if returned else type(exc).__name__
        # BeginTrans learns its id on the way; EndTrans forgets it.
        span.read_txn()
        if span.txn is None and span.parent is not None:
            span.txn = span.parent.txn
        if span.on_finish is not None:
            span.on_finish(span, exc.value if returned else None)
        span.txn_of = span.args = span.on_finish = None
        if not self.recording:
            return
        self.vtimes.setdefault(span.name, []).append(
            span.virt_end - span.virt_start)
        if len(self.spans) < SPAN_CAP:
            self.spans.append(span)
        else:
            self.spans_dropped += 1


class SpanGen:
    """A generator seen through its span: the same protocol (``send``,
    ``throw``, ``close``, return value, exceptions), with the span open
    on the tracer's stack while the generator runs, so that spans
    started inside it know their parent."""

    __slots__ = ("_tr", "_gen", "_send", "_span")

    def __init__(self, tracer, gen, span):
        self._tr = tracer
        self._gen = gen
        self._send = gen.send
        self._span = span

    def __getattr__(self, name):
        # __name__, gi_frame, ...: whatever the wrapped generator has.
        return getattr(self._gen, name)

    def __iter__(self):
        return self

    def send(self, value=None):
        return self._resume(self._send, value)

    __next__ = send

    def throw(self, *exc):
        return self._resume(self._gen.throw, *exc)

    def close(self):
        try:
            self._gen.close()
        finally:
            span, self._span = self._span, None
            if span is not None and span.resumes:
                self._tr._finish(span, GeneratorExit())

    def _resume(self, op, *args):
        span = self._span
        if span is None:                # already finished: stay transparent
            return op(*args)
        tr = self._tr
        if not span.resumes:
            tr._begin(span)
        span.resumes += 1
        open_spans = tr.span_stack
        open_spans.append(span)
        try:
            return op(*args)
        except BaseException as exc:    # StopIteration: the call returned
            self._span = None
            tr._finish(span, exc)
            raise
        finally:
            open_spans.pop()


def _wrap(tracer, fn, key, span=None, txn_of=None, on_finish=None):
    """Wrap ``fn``: count its calls under ``key`` and, for a coarse
    boundary, record each call as a span named ``span``."""
    calls = tracer.calls
    calls.setdefault(key, 0)

    if span is None:
        def traced(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
    else:
        def traced(*args, **kwargs):
            calls[key] += 1
            out = fn(*args, **kwargs)
            if out.__class__ is not GeneratorType:
                return out
            tracer.spans_started += 1
            return SpanGen(tracer, out, Span(
                tracer.spans_started, span, txn_of, args, on_finish))

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", "traced")
    return traced


class _Patches:
    """Every attribute replaced, so all of it can be put back."""

    def __init__(self):
        self._undo = []

    def set(self, owner, name, value):
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def remove(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def __len__(self):
        return len(self._undo)


def _holder_txn(holder):
    if isinstance(holder, tuple) and len(holder) == 2 and holder[0] == "txn":
        return holder[1]
    return None


def _body_txn(body, _src=None):
    if not isinstance(body, dict):
        return None
    return (body.get("tid") or _holder_txn(body.get("holder"))
            or _holder_txn(body.get("accessor")))


#: (module, class or None, names, layer, span name or None, txn_of).
#: ``{}`` in a span name is filled with the function's own name.
_TARGETS = (
    ("repro.sim.engine", "Engine",
     ("run", "schedule", "schedule_many", "process"), "sim", None, None),
    ("repro.locus.kernel", "Kernel",
     ("sys_open", "sys_close", "sys_seek", "sys_read", "sys_write",
      "sys_file_size", "sys_commit_file", "sys_lock", "sys_begin_trans",
      "sys_end_trans", "sys_abort_trans", "sys_fork", "sys_wait",
      "sys_migrate"),
     "locus", "syscall.{}", lambda self, proc, *a: proc.tid),
    ("repro.core.transaction", "TransactionService",
     ("begin", "end", "abort_call"),
     "core", "txn.{}", lambda self, proc: proc.tid),
    ("repro.core.transaction", "TransactionService", ("abort",),
     "core", "txn.abort", lambda self, txn, *a: txn.tid),
    ("repro.core.twophase", None, ("run_two_phase_commit", "phase_two"),
     "core", "2pc.{}", lambda site, txn, *a: txn.tid),
    ("repro.core.twophase", None,
     ("prepare_participant", "commit_participant", "abort_participant"),
     "core", "2pc.{}", lambda site, tid, *a: tid),
    ("repro.locking.manager", "LockManager", ("lock",),
     "locking", "lock", lambda self, file_id, holder, *a: _holder_txn(holder)),
    ("repro.locking.manager", "LockManager",
     ("unlock", "release_holder", "cancel_waits", "wait_edges",
      "wait_edge_details"), "locking", None, None),
    ("repro.locking.deadlock", None,
     ("build_wait_graph", "find_cycle", "choose_victim"),
     "locking", None, None),
    ("repro.net.rpc", "RpcEndpoint", ("call",), "net", "rpc.call", None),
    ("repro.net.rpc", "RpcEndpoint", ("cast",), "net", None, None),
    ("repro.net.network", "Network", ("send",), "net", None, None),
    ("repro.storage.disk", "Disk", ("read_block", "write_block"),
     "storage", "disk.{}", None),
    ("repro.storage.shadow", "OpenFileState",
     ("read", "write", "flush", "apply", "commit", "abort", "dirty_owners"),
     "storage", None, None),
    ("repro.storage.logfile", "LogFile", ("append", "append_in_place"),
     "storage", "log.{}", None),
    ("repro.storage.groupcommit", "GroupCommitScheduler", ("force",),
     "storage", "log.force", None),
    ("repro.workloads.txngen", "TxnGenerator", ("next_transaction",),
     "workloads", None, None),
    ("repro.obs", "Observability",
     ("span", "end", "observe", "incr", "event"), "obs", None, None),
)


def install(tracer):
    """Patch the layers' public functions; returns the undo object
    (call ``.remove()``).  Must run before the ``Cluster`` is built:
    RPC handlers are wrapped as they pass through ``register``.  A
    target the tree no longer has is skipped and listed in
    ``tracer.missing`` -- the benchmark must outlive refactors."""
    patches = _Patches()
    try:
        for target in _TARGETS:
            _install_target(tracer, patches, *target)
        _install_specials(tracer, patches)
    except BaseException:
        patches.remove()
        raise
    return patches


def _install_target(tracer, patches, modname, clsname, names, layer, span,
                    txn_of):
    try:
        module = importlib.import_module(modname)
    except ImportError:
        tracer.missing.append(modname)
        return
    owner = module if clsname is None else getattr(module, clsname, None)
    for name in names:
        original = None if owner is None else vars(owner).get(name)
        if original is None:
            tracer.missing.append(
                ".".join(filter(None, (modname, clsname, name))))
            continue
        wrapper = _wrap(
            tracer, original, "%s.%s" % (layer, name),
            span=span.format(name) if span else None, txn_of=txn_of,
            on_finish=_on_finish(tracer, clsname, name))
        if clsname is not None:
            patches.set(owner, name, wrapper)
            continue
        # A plain function: every module that imported the name
        # directly holds its own reference to it.
        for other, mod in sorted(sys.modules.items()):
            if (other.split(".")[0] == "repro" and mod is not None
                    and vars(mod).get(name) is original):
                patches.set(mod, name, wrapper)


def _on_finish(tracer, clsname, name):
    """Counters that need more than a call count."""
    calls = tracer.calls
    if (clsname, name) == ("LockManager", "lock"):
        calls.setdefault("locking.lock_waits", 0)

        def lock_done(span, _result):
            # The first suspension is the instruction charge; a second
            # one means the request queued behind a conflicting lock.
            if span.resumes > 2:
                calls["locking.lock_waits"] += 1
        return lock_done
    if (clsname, name) == ("RpcEndpoint", "call"):
        calls.setdefault("net.rpc_failed", 0)

        def call_done(span, _result):
            if span.status != "ok":
                calls["net.rpc_failed"] += 1
        return call_done
    if name == "prepare_participant":
        calls.setdefault("core.ro_votes", 0)

        def prepare_done(_span, reply):
            if isinstance(reply, dict) and reply.get("read_only"):
                calls["core.ro_votes"] += 1
        return prepare_done
    return None


def _install_specials(tracer, patches):
    """The two targets whose wrapper is not the generic one."""
    from repro.locking.table import LockTable
    from repro.net.rpc import RpcEndpoint

    # LockTable.conflicts: hot, so count only -- plus the size of the
    # table it is about to scan, on every sixteenth call.
    calls = tracer.calls
    conflicts = vars(LockTable)["conflicts"]
    calls.setdefault("locking.conflicts", 0)
    samples = tracer.table_samples

    def traced_conflicts(self, holder, mode, start, end):
        n = calls["locking.conflicts"] = calls["locking.conflicts"] + 1
        if n % TABLE_SAMPLE_EVERY == 0 and tracer.recording:
            samples.append(self.live_count())
        return conflicts(self, holder, mode, start, end)

    patches.set(LockTable, "conflicts", traced_conflicts)

    # RpcEndpoint.register: server-side handlers, one span per request.
    register = vars(RpcEndpoint)["register"]

    def traced_register(self, kind, handler):
        return register(self, kind, _wrap(
            tracer, handler, "locus.handler",
            span="rpc.serve.%s" % kind, txn_of=_body_txn))

    patches.set(RpcEndpoint, "register", traced_register)


# ----------------------------------------------------------------------
# independent cross-check
# ----------------------------------------------------------------------

class Profiler:
    """cProfile behind the :class:`Sampler`'s interface: ``start()`` /
    ``stop()`` bracket each measured ``driver.run()``, :meth:`shares`
    rolls self time up by the sampler's rule."""

    def __init__(self):
        self._profile = cProfile.Profile()
        self.start = self._profile.enable
        self.stop = self._profile.disable

    def shares(self) -> dict:
        """Each layer's share of profiled self time: a function belongs
        to the package its file is in; builtins, the stdlib, the
        floating helper modules and ``sim`` helpers are folded into
        whoever called them, caller by caller (pstats keeps self time
        per caller), and ``sim`` keeps what only the dispatch loop
        called.  cProfile charges every call a fixed cost, which the
        sampler does not, so call-heavy layers read a few points higher
        here."""
        # func -> (cc, nc, tt, ct, callers)
        stats = pstats.Stats(self._profile).stats
        home = {func: _package_of(func[0]) for func in stats}
        settled = {func for func in stats
                   if home[func] not in (None, "sim")
                   or _is_dispatch(func[0], func[2])}

        # dist[func]: how the function's self time splits over the layers.
        # A layer's own function and the dispatch loop are settled; the
        # others inherit from their callers, weighted by the self time each
        # caller caused.
        dist = {func: {home[func]: 1.0} if func in settled else {}
                for func in stats}
        for _round in range(12):
            changed = False
            for func, (_cc, _nc, _tt, _ct, callers) in stats.items():
                if func in settled:
                    continue
                total = sum(c[2] for c in callers.values())
                mix = {}
                if total > 0:
                    for caller, (_c, _n, from_caller, _cct) in callers.items():
                        for layer, share in dist.get(caller, {}).items():
                            mix[layer] = (mix.get(layer, 0.0)
                                          + share * from_caller / total)
                if mix != dist[func]:
                    dist[func] = mix
                    changed = True
            if not changed:
                break
        seconds = dict.fromkeys(LAYERS, 0.0)
        total = 0.0
        for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
            total += tt
            for layer, share in dist[func].items():
                seconds[layer] += tt * share
        return {layer: seconds[layer] / total if total else 0.0
                for layer in LAYERS}
