"""Generator-based simulation processes.

A process is a Python generator that yields :class:`Waitable` objects.
The process suspends until the waitable completes; its success value is
sent back into the generator (``x = yield some_event``), and a failure is
raised at the yield point.  A process is itself a waitable: yielding a
process joins it, producing the generator's return value.

Processes can be interrupted (an :class:`Interrupt` is raised at the
current yield point and may be caught) or killed (the generator is closed
unconditionally -- this models site crashes).

Hot-path notes (docs/ENGINE_PERF.md): each wait subscribes through
``waitable._subscribe_process(self, epoch)``, which threads the epoch
through the scheduled entry's args instead of closing over it -- no
per-yield lambda, one fewer call frame per resume.
"""

from __future__ import annotations

from .errors import Interrupt, ProcessKilled, SimError
from .events import Waitable

__all__ = ["Process"]

_PENDING = "pending"
_DONE = "done"
_FAILED = "failed"
_KILLED = "killed"

#: Kickoff args for the very first resume (epoch 0, ok, no value) --
#: shared by every process so spawning allocates no args tuple.
_KICKOFF = (0, True, None)


class Process(Waitable):
    """Drives a generator through the engine.  Create via ``engine.process``.

    The ``_obs_ctx`` slot belongs to the engine's span recorder
    (:mod:`repro.obs.span`): this process's ``[track, open spans]``,
    None until the recorder first sees the process.  Nothing else reads
    or writes it, and it dies with the process, so no observer has to
    key a table on one.  ``registry`` is its owning site's ordered dict
    of live processes (``Site.process``), which it leaves as it ends."""

    # Slot-based: thousands of short-lived processes make up a heavy
    # workload, and resume is the engine's hottest callback.
    __slots__ = ("_engine", "_gen", "name", "state", "value", "cpu_time",
                 "_joiners", "_epoch", "_obs_ctx", "registry")

    def __init__(self, engine, generator, name=None):
        self._engine = engine
        self._gen = generator
        self.name = name or getattr(generator, "__name__", "process")
        self.state = _PENDING
        self.value = None          # return value once done, or the exception
        self.cpu_time = 0.0        # CPU seconds booked via Engine.charge()
        self._joiners = []
        self._epoch = 0            # guards against stale waitable callbacks
        self._obs_ctx = None
        self.registry = None
        # Kick the generator off asynchronously so creation order, not
        # creation nesting, determines execution order.
        engine._post(self._resume, _KICKOFF)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self.state == _PENDING

    @property
    def failed(self) -> bool:
        return self.state == _FAILED

    @property
    def killed(self) -> bool:
        return self.state == _KILLED

    def __repr__(self):
        return "<Process %s %s at t=%g>" % (self.name, self.state, self._engine.now)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def _resume(self, epoch, ok, value):
        if self.state != _PENDING or epoch != self._epoch:
            return  # stale wakeup from a superseded wait
        engine = self._engine
        prev = engine._current
        engine._current = self
        try:
            if ok:
                waitable = self._gen.send(value)
            else:
                waitable = self._gen.throw(value)
        except StopIteration as stop:
            self._finish(_DONE, stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - process bodies may raise anything
            self._finish(_FAILED, exc)
            return
        finally:
            engine._current = prev
        if not isinstance(waitable, Waitable):
            self._finish(
                _FAILED,
                SimError("process %s yielded a non-waitable: %r" % (self.name, waitable)),
            )
            return
        self._epoch = epoch = epoch + 1
        waitable._subscribe_process(self, epoch)

    def _finish(self, state, value):
        self.state = state
        self.value = value
        self._epoch += 1
        if self.registry is not None:
            del self.registry[self]
        joiners = self._joiners
        if joiners:
            self._joiners = []
            post = self._engine._post
            if state == _DONE:
                for cb in joiners:
                    if cb.__class__ is tuple:
                        post(cb[0]._resume, (cb[1], True, value))
                    else:
                        post(cb, (True, value))
            else:
                for cb in joiners:
                    if cb.__class__ is tuple:
                        post(cb[0]._resume, (cb[1], False, self._join_error()))
                    else:
                        post(cb, (False, self._join_error()))

    def _join_error(self):
        if self.state == _FAILED:
            return self.value
        return ProcessKilled("process %s was killed" % self.name)

    def interrupt(self, cause=None):
        """Raise :class:`Interrupt` inside the process at its wait point.

        No-op if the process already finished.  The process may catch the
        interrupt and continue.
        """
        if self.state != _PENDING:
            return
        self._epoch += 1  # invalidate the outstanding wait
        self._engine._post(self._deliver_interrupt, (self._epoch, cause))

    def _deliver_interrupt(self, epoch, cause):
        if self.state != _PENDING or epoch != self._epoch:
            return  # superseded by a later interrupt or completion
        self._resume(epoch, False, Interrupt(cause))

    def kill(self):
        """Terminate the process unconditionally (models a crash).

        The generator's ``finally`` blocks run, but the process cannot
        continue.  Joiners see :class:`ProcessKilled`.
        """
        if self.state != _PENDING:
            return
        try:
            self._gen.close()
        except BaseException:  # noqa: BLE001 - crash teardown must not propagate
            pass
        self._finish(_KILLED, None)

    # ------------------------------------------------------------------
    # waitable protocol: joining
    # ------------------------------------------------------------------

    def _subscribe(self, callback):
        if self.state == _DONE:
            self._engine._post(callback, (True, self.value))
        elif self.state == _PENDING:
            self._joiners.append(callback)
        else:
            self._engine._post(callback, (False, self._join_error()))

    def _subscribe_process(self, proc, epoch):
        if self.state == _PENDING:
            self._joiners.append((proc, epoch))
        elif self.state == _DONE:
            self._engine._post(proc._resume, (epoch, True, self.value))
        else:
            self._engine._post(proc._resume, (epoch, False, self._join_error()))
