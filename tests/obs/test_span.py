"""Span recorder: nesting, propagation, capacity, idempotence, and a
span's attributes as its declared shape and values tuple."""

import pytest

from repro.obs import Observability, SpanRecorder
from repro.sim import Engine
from repro.sim.kinds import SPANS
from tests.conftest import drive
from tests.obs.test_retention import run_cell


def obs_on(eng):
    return Observability(eng).install()


def test_ambient_nesting_within_a_process(eng):
    obs = obs_on(eng)

    def prog():
        outer = obs.span("outer", site_id=1)
        inner = obs.span("inner", site_id=1)
        assert inner.trace_id == outer.trace_id
        assert inner.parent_id == outer.span_id
        obs.end(inner)
        obs.end(outer)
        yield eng.timeout(0)

    drive(eng, prog())
    outer, = obs.spans.select(name="outer")
    assert [s.name for s in obs.spans.children(outer)] == ["inner"]


def test_root_forces_fresh_trace(eng):
    obs = obs_on(eng)

    def prog():
        ambient = obs.span("ambient")
        fresh = obs.span("fresh", root=True)
        assert fresh.trace_id != ambient.trace_id
        assert fresh.parent_id is None
        # The fresh root sits on the stack: later spans nest under it.
        child = obs.span("child")
        assert child.parent_id == fresh.span_id
        obs.end(child), obs.end(fresh), obs.end(ambient)
        yield eng.timeout(0)

    drive(eng, prog())


def test_spawned_process_inherits_open_span(eng):
    obs = obs_on(eng)
    seen = {}

    def child():
        span = obs.span("child-work")
        seen["parent_id"] = span.parent_id
        seen["trace_id"] = span.trace_id
        obs.end(span)
        yield eng.timeout(0)

    def parent():
        span = obs.span("parent-work")
        eng.process(child())
        yield eng.timeout(0.1)
        obs.end(span)

    drive(eng, parent())
    parent_span, = obs.spans.select(name="parent-work")
    assert seen["parent_id"] == parent_span.span_id
    assert seen["trace_id"] == parent_span.trace_id


def test_tuple_parent_links_across_contexts(eng):
    obs = obs_on(eng)

    def prog():
        remote = obs.span("server-side", parent=(77, 123))
        assert remote.trace_id == 77
        assert remote.parent_id == 123
        obs.end(remote)
        yield eng.timeout(0)

    drive(eng, prog())


def test_end_is_idempotent_and_accepts_none(eng):
    obs = obs_on(eng)

    def prog():
        span = obs.span("once")
        yield eng.timeout(1.0)
        obs.end(span, status="first")
        yield eng.timeout(1.0)
        obs.end(span, status="second")  # must not reopen or restamp
        obs.end(None)                   # accepted, ignored
        return span

    span = drive(eng, prog())
    assert span.end == 1.0
    assert span.status == "first"


def test_mid_stack_end_keeps_outer_context(eng):
    obs = obs_on(eng)

    def prog():
        outer = obs.span("outer")
        middle = obs.span("middle")
        inner = obs.span("inner")
        obs.end(middle)  # closed out of order (async resolution)
        after = obs.span("after")
        assert after.parent_id == inner.span_id
        for s in (after, inner, outer):
            obs.end(s)
        yield eng.timeout(0)

    drive(eng, prog())


def test_capacity_drops_are_counted(eng):
    obs = Observability(eng, span_capacity=2).install()

    def prog():
        for i in range(5):
            obs.end(obs.span("s%d" % i))
        yield eng.timeout(0)

    drive(eng, prog())
    assert len(obs.spans) == 2
    assert obs.spans.dropped == 3


def test_capacity_keeps_the_first_spans_in_start_order(eng):
    obs = Observability(eng, span_capacity=3).install()

    def prog():
        spans = []
        for i in range(6):
            span = obs.span("s%d" % i, root=True)
            yield eng.timeout(0.001)
            spans.append(span)
        for span in reversed(spans):    # close order does not matter
            obs.end(span)

    drive(eng, prog())
    assert [s.name for s in obs.spans.spans] == ["s0", "s1", "s2"]
    assert obs.spans.dropped == 3


def test_a_dropped_span_is_not_retrievable(eng):
    obs = Observability(eng, span_capacity=1).install()

    def prog():
        kept = obs.span("kept", root=True)
        obs.end(kept)
        gone = obs.span("gone", root=True)
        obs.end(gone)
        yield eng.timeout(0)
        return kept, gone

    kept, gone = drive(eng, prog())
    recorder = obs.spans
    assert recorder.get(kept.span_id) is kept
    assert recorder.get(gone.span_id) is None
    assert recorder.select(name="gone") == []
    assert recorder.trace_ids() == [kept.trace_id]


def test_a_dropped_span_still_parents_its_children(eng):
    # Causality survives the capacity bound: what a dropped span hands
    # on (ambient parent, the context an RPC carries) is unchanged.
    obs = Observability(eng, span_capacity=1).install()
    seen = {}

    def prog():
        obs.end(obs.span("setup", root=True))
        outer = obs.span("outer", root=True)
        inner = obs.span("inner")
        seen["context"] = obs.spans.current_context()
        obs.end(inner)
        obs.end(outer)
        yield eng.timeout(0)
        return outer, inner

    outer, inner = drive(eng, prog())
    assert obs.spans.dropped == 2
    assert (inner.trace_id, inner.parent_id) \
        == (outer.trace_id, outer.span_id)
    assert seen["context"] == (inner.trace_id, inner.span_id)


def test_a_dropped_span_closes_and_frees_its_stack(eng):
    obs = Observability(eng, span_capacity=1).install()

    def prog():
        outer = obs.span("outer")
        inner = obs.span("groupcommit.wait", None, "d0")
        yield eng.timeout(0.5)
        obs.end(inner, status="ok")
        assert obs.spans.current() is outer
        obs.end(outer)
        assert obs.spans.current() is None
        return inner

    inner = drive(eng, prog())
    assert obs.spans.spans == [obs.spans.select(name="outer")[0]]
    assert obs.spans.select(name="groupcommit.wait") == []
    assert (inner.end, inner.status) == (0.5, "ok")
    assert dict(inner.attrs) == {"disk": "d0"}
    assert inner._stack is None


def test_no_capacity_keeps_every_span(eng):
    obs = Observability(eng, span_capacity=None).install()

    def prog():
        for i in range(500):
            obs.end(obs.span("s", root=True))
        yield eng.timeout(0)

    drive(eng, prog())
    assert len(obs.spans) == 500
    assert obs.spans.dropped == 0


def test_instants_are_not_bounded_by_span_capacity(eng):
    obs = Observability(eng, span_capacity=0).install()

    def prog():
        obs.end(obs.span("s", root=True))
        obs.spans.instant("mark", site_id=1)
        yield eng.timeout(0)

    drive(eng, prog())
    assert (len(obs.spans), obs.spans.dropped) == (0, 1)
    assert [m.name for m in obs.spans.instants] == ["mark"]


def test_default_capacity_is_the_safety_bound(eng):
    # The 1,024-client scaling cell records 86,677 spans; the default
    # keeps all of them.
    assert SpanRecorder(eng).capacity == 200000
    assert Observability(eng).spans.capacity == 200000


def test_select_filters(eng):
    obs = obs_on(eng)

    def prog():
        a = obs.span("x", site_id=1)
        obs.end(a)
        b = obs.span("x", site_id=2, root=True)
        obs.end(b)
        c = obs.span("y", site_id=1, root=True)
        obs.end(c)
        yield eng.timeout(0)

    drive(eng, prog())
    assert len(obs.spans.select(name="x")) == 2
    assert len(obs.spans.select(site_id=1)) == 2
    assert len(obs.spans.select(name="x", site_id=2)) == 1
    assert len(obs.spans.trace_ids()) == 3


class SnapshotRecorder(SpanRecorder):
    """A recorder that also keeps, per span id, the values the span was
    opened with and those its ``end`` supplied."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.opened = {}
        self.ended = {}

    def _start(self, name, site_id, parent, root, values):
        span = super()._start(name, site_id, parent, root, values)
        self.opened[span.span_id] = values
        return span

    def _end(self, span, status, values):
        if span is not None and span.end is None:
            self.ended[span.span_id] = values
        super()._end(span, status, values)


def test_spans_keep_the_declared_shape_and_their_values(monkeypatch):
    monkeypatch.setattr("repro.obs.SpanRecorder", SnapshotRecorder)
    recorder = run_cell(4).obs.spans
    assert isinstance(recorder, SnapshotRecorder)
    closed = [s for s in recorder.spans if s.end is not None]
    assert len(closed) > 500
    for span in closed:
        values = recorder.opened[span.span_id] + recorder.ended[span.span_id]
        # The values as announced, raw; the declared fields in order.
        assert span._values == values
        assert tuple(span.attrs) == SPANS[span.name][:len(values)]
        # One shape per name, the declared tuple itself, shared.
        assert span._shape is SPANS[span.name]
    # Every field is supplied.
    assert all(len(s._values) == len(SPANS[s.name]) for s in closed)
    # A lock wait's raw holders read as text.
    wait = next(s for s in closed if s.name == "lock.wait")
    assert wait.attrs["holder"] == "%s:%s" % wait._values[1]
    assert wait.attrs["blocked_by"] == tuple(sorted(
        "%s:%s" % b for b in wait._values[5]))


def test_closed_attrs_are_read_only(eng):
    obs = obs_on(eng)

    def prog():
        span = obs.span("disk.read", 1, "d0", 4, "io.read.data")
        obs.end(span, None, 0.5)
        yield eng.timeout(0)
        return span

    span = drive(eng, prog())
    assert dict(span.attrs) == {"disk": "d0", "block": 4,
                                "category": "io.read.data", "queued": 0.5}
    with pytest.raises(TypeError):
        span.attrs["disk"] = "d1"
    with pytest.raises(TypeError):
        del span.attrs["queued"]
    assert span.attrs["disk"] == "d0"


def test_end_appends_the_fields_only_end_supplies(eng):
    obs = obs_on(eng)

    def prog():
        span = obs.span("2pc.prepare", 2, "t1", 3, 1)
        assert dict(span.attrs) == {"tid": "t1", "files": 3,
                                    "coordinator": 1}
        with pytest.raises(TypeError):
            span.attrs["vote"] = "yes"     # an open span is read-only too
        obs.end(span, "prepared", "yes")
        obs.end(span, "failed", "no")      # idempotent: the first end won
        yield eng.timeout(0)
        return span

    span = drive(eng, prog())
    assert span.status == "prepared"
    assert list(span.attrs.items()) == [
        ("tid", "t1"), ("files", 3), ("coordinator", 1), ("vote", "yes")]
