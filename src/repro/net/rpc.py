"""Lightweight request/response protocol over the simulated network.

Each site owns one :class:`RpcEndpoint`.  Handlers are *generators*
(simulation coroutines) registered by message kind.  The network hands
each delivered message to :meth:`RpcEndpoint._receive` in an engine turn
of its own (:mod:`repro.net.network`): a reply resumes its waiting
caller, and a request starts a fresh ``serve:*`` process through the
site's spawn, so a slow handler (one doing disk I/O) never holds up the
next message and a crash kills it with the rest of the site.

Failure semantics mirror the paper's environment: a request to an
unreachable or crashed site is silently lost and the caller's RPC times
out, raising :class:`SiteUnreachable`.  A handler exception is shipped
back and re-raised at the caller as :class:`RemoteError`.
"""

from __future__ import annotations

from repro.sim import SimError, Waitable

from .messages import HEADER_BYTES, Message, MessageKinds

__all__ = ["RpcEndpoint", "RpcError", "RemoteError", "SiteUnreachable",
           "IDEMPOTENT_KINDS"]

#: Request kinds that are safe to resend verbatim after a timeout: pure
#: status queries, the lease-recall callback (re-recalling an
#: already-surrendered lease is a no-op at the leaseholder), and the
#: coalesced phase-two commit batch (participant commit processing is
#: idempotent, section 4.4, so re-delivering every tid in the batch is
#: harmless).
IDEMPOTENT_KINDS = frozenset({
    MessageKinds.TXN_STATUS,
    MessageKinds.WAITFOR_QUERY,
    MessageKinds.LEASE_RECALL,
    MessageKinds.COMMIT_BATCH,
})


#: Sentinel resumed into the caller when the deadline beats the reply.
_TIMEOUT = object()


class _ReplyWait(Waitable):
    """Reply waitable with an embedded deadline (the RPC fast path).

    One ``_ReplyWait`` per call stands in for an event raced against a
    timeout, consuming engine sequence numbers at exactly the points
    such a race would: one for the deadline entry at subscribe time,
    one for the resume when the reply (or the deadline, or a
    crash-failure) wins.
    When the wait ends any other way than by its deadline, the deadline
    entry is *cancelled* instead of left to pop at its far-future time,
    which is what keeps long-timeout configs from accumulating dead
    heap entries (see tests/net/test_rpc_heap.py).
    """

    __slots__ = ("_engine", "_proc", "_epoch", "_limit", "_entry")

    def __init__(self, engine, limit):
        self._engine = engine
        self._proc = None
        self._epoch = -1
        self._limit = limit     # None = wait forever (no deadline entry)
        self._entry = None

    def _subscribe_process(self, proc, epoch):
        self._proc = proc
        self._epoch = epoch
        if self._limit is not None:
            self._entry = self._engine._schedule(
                self._limit, proc._resume, (epoch, True, _TIMEOUT)
            )

    def _subscribe(self, callback):
        raise SimError("_ReplyWait must be yielded by the calling process")

    def _cancel_deadline(self):
        if self._entry is not None:
            self._engine.cancel(self._entry)

    def _resolve(self, ok, value):
        """The reply (``ok``) or a local crash (``value`` is then the
        exception to raise) won: cancel the deadline, resume the caller."""
        # Here, not only in the caller's ``finally``: a deadline due at
        # this very instant would otherwise fire before the resume below.
        self._cancel_deadline()
        proc = self._proc
        if proc is not None:
            self._engine._post(proc._resume, (self._epoch, ok, value))


class RpcError(SimError):
    """Base class for RPC failures."""


class SiteUnreachable(RpcError):
    """The destination did not answer within the RPC timeout."""


class RemoteError(RpcError):
    """The remote handler raised; the message is the remote traceback text."""


class RpcEndpoint:
    """One site's attachment to the network; ``spawn(generator, name)``
    (the site's ``process``) starts its server processes."""

    def __init__(self, engine, network, site_id, spawn, timeout=2.0, retries=0):
        self._engine = engine
        self._spawn = spawn
        self._network = network
        self.site_id = site_id
        self.timeout = timeout
        self.retries = retries  # extra sends for IDEMPOTENT_KINDS only
        self._handlers = {}
        self._pending = {}  # msg_id -> _ReplyWait awaiting the reply
        network.attach(site_id, self._receive)

    # ------------------------------------------------------------------
    # server side
    # ------------------------------------------------------------------

    def register(self, kind, handler):
        """Register ``handler(body, src) -> generator returning reply body``."""
        if kind in self._handlers:
            raise RpcError("handler for %r already registered" % kind)
        self._handlers[kind] = handler

    def _receive(self, msg):
        """The network's turn for one delivered message."""
        if msg.is_reply:
            rw = self._pending.pop(msg.reply_to, None)
            if rw is not None:
                rw._resolve(True, msg)
        else:
            self._spawn(self._serve(msg),
                        "serve:%s@%s" % (msg.kind, self.site_id))

    def _serve(self, msg):
        obs = self._engine.obs
        # Parent is the *caller's* span, carried in the message: the
        # cross-site link that stitches a distributed operation into one
        # causal tree.
        span = obs.span("rpc.serve", self.site_id, msg.kind, msg.src,
                        parent=msg.trace)
        try:
            handler = self._handlers.get(msg.kind)
            if handler is None:
                self._reply(msg, ok=False,
                            body={"error": "no handler for %r" % msg.kind})
                obs.end(span, "no-handler")
                return
            try:
                result = yield from handler(msg.body, msg.src)
            except Exception as exc:  # noqa: BLE001 - errors travel back to caller
                self._reply(msg, ok=False,
                            body={"error": "%s: %s" % (type(exc).__name__, exc)})
                obs.end(span, "error")
                return
            body, nbytes = _split_result(result)
            self._reply(msg, ok=True, body=body, nbytes=nbytes)
        finally:
            obs.end(span, "ok")  # idempotent; error paths won

    def _reply(self, request, ok, body, nbytes=HEADER_BYTES):
        self._network.send(
            Message(
                src=self.site_id,
                dst=request.src,
                kind=request.kind + ".reply",
                body=body,
                nbytes=nbytes,
                reply_to=request.msg_id,
                ok=ok,
            )
        )

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------

    def call(self, dst, kind, body=None, nbytes=HEADER_BYTES, timeout=None):
        """Generator: send a request and wait for the reply body.

        Raises :class:`SiteUnreachable` on timeout and
        :class:`RemoteError` if the handler failed.  Timed-out requests
        of :data:`IDEMPOTENT_KINDS` are deterministically resent up to
        :attr:`retries` times before the failure surfaces -- one lost
        message (or lost reply) must not wedge a status query or a lease
        recall for good.
        """
        limit = self.timeout if timeout is None else timeout
        attempts = 1
        if kind in IDEMPOTENT_KINDS and limit != float("inf"):
            attempts += max(int(self.retries), 0)
        failure = None
        for _ in range(attempts):
            try:
                result = yield from self._call_once(dst, kind, body, nbytes, limit)
                return result
            except SiteUnreachable as exc:
                failure = exc
        raise failure

    def _call_once(self, dst, kind, body, nbytes, limit):
        obs = self._engine.obs
        span = obs.span("rpc.call", self.site_id, kind, dst)
        started = self._engine.now
        msg = Message(src=self.site_id, dst=dst, kind=kind, body=body or {},
                      nbytes=nbytes, trace=obs.context())
        # limit=None means no deadline entry (queued lock requests wait
        # forever; cancellation arrives via abort/interrupt paths).
        rw = _ReplyWait(self._engine,
                        None if limit == float("inf") else limit)
        self._pending[msg.msg_id] = rw
        self._network.send(msg)
        obs.event("rpc.send", self.site_id)
        try:
            reply = yield rw
            if reply is _TIMEOUT:
                obs.end(span, "timeout")
                raise SiteUnreachable(
                    "no reply from site %r for %s" % (dst, kind)
                )
        finally:
            obs.event("rpc.done", self.site_id)
            obs.end(span, "ok")  # idempotent; timeout path won
            # However the wait ended -- reply, deadline, crash-failure
            # or an interrupt -- nothing stays registered or armed: a
            # late reply finds no waiter, as after a timeout.
            self._pending.pop(msg.msg_id, None)
            rw._cancel_deadline()
        # The paper measures "at the requesting site": the round trip
        # includes network transit and the remote handler's work.
        obs.observe(self.site_id, "rpc.rtt", self._engine.now - started)
        if not reply.ok:
            raise RemoteError(reply.body.get("error", "remote failure"))
        return reply.body

    def cast(self, dst, kind, body=None, nbytes=HEADER_BYTES):
        """One-way send; no reply expected (used for async phase-two
        commit messages, section 4.2)."""
        self._network.send(
            Message(src=self.site_id, dst=dst, kind=kind, body=body or {},
                    nbytes=nbytes, trace=self._engine.obs.context())
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def stop(self):
        """Crash: fail outstanding calls (the network drops the site's
        undelivered messages; a reboot needs nothing from here)."""
        pending, self._pending = self._pending, {}
        for rw in pending.values():
            rw._resolve(False, SiteUnreachable("local site crashed"))


def _split_result(result):
    """Handlers may return ``body`` or ``(body, nbytes)`` to model bulk
    replies (for example a data page)."""
    if isinstance(result, tuple) and len(result) == 2 and isinstance(result[1], int):
        return result[0] or {}, result[1]
    return result or {}, HEADER_BYTES
