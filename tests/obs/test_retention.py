"""What an observed run keeps: spans, instants, sketches, monitor
state -- and no finished simulation process (ROADMAP aim 3: "never
grows without bound").

The recorder's per-process context lives in ``Process._obs_ctx`` and
dies with the process; before that it sat in two recorder dicts keyed
by the process, which kept every process that ever opened a span alive
for the life of the cluster."""

import dataclasses
import gc
import tracemalloc
import types

from repro import Cluster, drive
from repro.config import SystemConfig
from repro.sim import Engine
from repro.sim.process import Process
from repro.workloads import MIXES, ScalingDriver

CLIENTS = 64


def run_cell(txns_per_client, capacity=200000):
    """An observed closed-loop ``transfer`` cell on three sites, as the
    ``oltp_hot_obs`` ledger workload builds it, with a span recorder of
    the given capacity."""
    stock = {c.name: c for c in MIXES["banking"].classes}
    transfer = dataclasses.replace(MIXES["banking"], classes=(
        dataclasses.replace(stock["transfer"], weight=1.0),))
    cluster = Cluster(
        site_ids=(1, 2, 3),
        config=SystemConfig(rpc_timeout=30.0, commit_batching=True))
    obs = cluster.enable_observability(monitors=True, strict=True,
                                       provenance=True)
    obs.spans.capacity = capacity
    driver = ScalingDriver(
        cluster, mix=transfer, theta=0.9, clients=CLIENTS,
        txns_per_client=txns_per_client, think_mean=0.1, max_retries=64,
        seed=1)
    driver.setup()
    result = driver.run()
    assert result.committed == CLIENTS * txns_per_client
    return cluster


def live_processes(cluster):
    """Processes of this cluster's engine the heap still holds."""
    gc.collect()
    return sum(1 for obj in gc.get_objects()
               if type(obj) is Process and obj._engine is cluster.engine)


def test_finished_processes_are_not_retained():
    # 2,800+ before the context moved onto the process.
    cluster = run_cell(4)
    spans = cluster.obs.spans.spans
    assert spans
    assert live_processes(cluster) <= CLIENTS + 16
    # A closed span keeps nothing of the process that opened it.
    assert all(s._stack is None for s in spans if s.end is not None)


def test_retained_processes_do_not_grow_with_the_run():
    short = live_processes(run_cell(4))
    assert live_processes(run_cell(8)) <= short


#: A capacity that the ``run_cell(4)`` archive overflows several times.
SMALL_CAPACITY = 500


def test_finished_processes_are_not_retained_at_capacity():
    # A span past the capacity is handed to its caller and then let go:
    # neither it nor its owner outlives the process.
    cluster = run_cell(4, capacity=SMALL_CAPACITY)
    recorder = cluster.obs.spans
    assert len(recorder) == SMALL_CAPACITY
    assert recorder.dropped > 4 * SMALL_CAPACITY
    assert live_processes(cluster) <= CLIENTS + 16
    assert all(s._stack is None for s in recorder.spans if s.end is not None)


def test_capacity_keeps_a_prefix_closed_under_parents():
    # The recorder keeps the first spans started, and a parent always
    # starts before its child: every kept span's parent is kept too, so
    # only the trace-level rules (dangling provenance) can see the cut.
    from repro.obs.lint import _lint, lint_spans

    recorder = run_cell(4, capacity=SMALL_CAPACITY).obs.spans
    assert [s.span_id for s in recorder.spans] \
        == list(range(1, SMALL_CAPACITY + 1))
    assert _lint(recorder.spans, dropped=False) == []
    assert lint_spans(recorder) == []


def test_no_observer_container_is_keyed_by_a_process():
    cluster = run_cell(4)
    # Everything the observers own: walk from the Observability object,
    # stopping at the engine (the simulator's own state) and at code.
    stop = (Engine, Process, type, types.ModuleType, types.FunctionType)
    seen, todo, keyed = {id(cluster.obs)}, [cluster.obs], []
    while todo:
        obj = todo.pop()
        if isinstance(obj, (dict, set, frozenset)):
            keyed.extend(key for key in obj if isinstance(key, Process))
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(ref, stop):
                seen.add(id(ref))
                todo.append(ref)
    assert len(seen) > len(cluster.obs.spans)   # the walk saw the spans
    assert keyed == []


#: Bytes the span archive of ``run_cell(4)`` keeps per closed span,
#: as measured (CPython 3.11) plus 10 %.  With a dict per span it was
#: 386; compacted at close to an interned key shape plus a values tuple
#: 273; with the declared shape and the raw values tuple it is 265.
BYTES_PER_SPAN = 291


def test_a_closed_span_keeps_no_dict_of_its_own():
    tracemalloc.start()
    try:
        cluster = run_cell(4)
        recorder = cluster.obs.spans
        closed = sum(1 for s in recorder.spans if s.end is not None)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        recorder.spans.clear()
        recorder._by_id = {}
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert closed > 5000
    assert freed / closed <= BYTES_PER_SPAN


#: (span_id, name, site, track, parent_id) of the commit run below,
#: pinned from the commit before the context moved: the track numbering
#: (first-seen order, spawned workers included) is what would silently
#: move ``BENCH_trace.json``.
PINNED = [
    (1, "disk.write", 2, 0, None),
    (2, "disk.write", 2, 1, None),
    (3, "disk.write", 2, 1, None),
    (4, "syscall.begin_trans", 1, 2, None),
    (5, "txn", 1, 2, None),
    (6, "syscall.open", 1, 2, 5),
    (7, "rpc.call", 1, 2, 6),
    (8, "rpc.serve", 2, 3, 7),
    (9, "syscall.lock", 1, 2, 5),
    (10, "rpc.call", 1, 2, 9),
    (11, "rpc.serve", 2, 4, 10),
    (12, "syscall.write", 1, 2, 5),
    (13, "rpc.call", 1, 2, 12),
    (14, "rpc.serve", 2, 5, 13),
    (15, "syscall.end_trans", 1, 2, 5),
    (16, "2pc", 1, 2, 15),
    (17, "disk.write", 1, 2, 16),
    (18, "disk.write", 1, 2, 16),
    (19, "rpc.call", 1, 6, 16),
    (20, "rpc.serve", 2, 7, 19),
    (21, "2pc.prepare", 2, 7, 20),
    (22, "disk.write", 2, 7, 21),
    (23, "disk.write", 2, 7, 21),
    (24, "disk.write", 2, 7, 21),
    (25, "disk.write", 1, 2, 16),
    (26, "rpc.call", 1, 2, 5),
    (27, "rpc.call", 1, 8, 16),
    (28, "rpc.serve", 2, 9, 26),
    (29, "rpc.serve", 2, 10, 27),
    (30, "2pc.apply", 2, 10, 29),
    (31, "disk.write", 2, 10, 30),
]


def test_span_ids_tracks_and_parents_of_a_two_site_commit_are_pinned():
    cluster = Cluster(site_ids=(1, 2))
    cluster.enable_observability(monitors=True, strict=True, provenance=True)
    drive(cluster.engine, cluster.create_file("/db/a", site_id=2))
    drive(cluster.engine, cluster.populate("/db/a", b"x" * 64))

    def prog(sys):
        yield from sys.begin_trans()
        fd = yield from sys.open("/db/a", write=True)
        yield from sys.lock(fd, 16)
        yield from sys.write(fd, b"y" * 16)
        yield from sys.end_trans()

    cluster.spawn(prog, site_id=1)
    cluster.run()
    assert [(s.span_id, s.name, s.site_id, s.tid, s.parent_id)
            for s in cluster.obs.spans.spans] == PINNED
