"""Instrumentation must not perturb the simulation.

The acceptance bar for the observability layer: an instrumented run is
event-for-event identical to an uninstrumented one -- same final
virtual clock, same categorized I/O counts, same program results.
"""

import pytest

from repro import Cluster, SystemConfig, drive
from repro.obs import Observability
from repro.workloads import MIXES


def run_workload(instrument, config=None, monitors=False, timeline_tick=0.0,
                 span_capacity=None, provenance=False, attach=None, mix=None):
    """``attach(cluster)``, when given, installs the observers instead of
    ``enable_observability``; ``mix`` tags the writers' transactions."""
    cluster = Cluster(site_ids=(1, 2, 3), config=config)
    if attach is not None:
        attach(cluster)
    elif instrument:
        obs = cluster.enable_observability(
            monitors=monitors, strict=monitors,
            timeline_tick=timeline_tick, provenance=provenance,
        )
        if span_capacity is not None:
            obs.spans.capacity = span_capacity
    drive(cluster.engine, cluster.create_file("/db/a", site_id=1))
    drive(cluster.engine, cluster.populate("/db/a", b"." * 256))
    drive(cluster.engine, cluster.create_file("/db/b", site_id=3))
    drive(cluster.engine, cluster.populate("/db/b", b"." * 256))

    def writer(sysc, delay, offset):
        yield from sysc.sleep(delay)
        yield from sysc.begin_trans()
        fda = yield from sysc.open("/db/a", write=True)
        yield from sysc.seek(fda, offset)
        yield from sysc.lock(fda, 48)
        yield from sysc.write(fda, b"x" * 48)
        fdb = yield from sysc.open("/db/b", write=True)
        yield from sysc.write(fdb, b"y" * 32)
        yield from sysc.end_trans()
        return sysc.now

    procs = [
        cluster.spawn(writer, 0.01 * i, (i % 2) * 24,
                      site_id=(1, 2, 3)[i % 3], name="w%d" % i, mix=mix)
        for i in range(4)
    ]
    cluster.run()
    outcomes = [(p.exit_status, p.exit_value) for p in procs]
    return cluster, outcomes


def test_instrumented_run_is_event_for_event_identical():
    bare_cluster, bare_outcomes = run_workload(instrument=False)
    inst_cluster, inst_outcomes = run_workload(instrument=True)

    assert inst_outcomes == bare_outcomes
    assert inst_cluster.engine.now == bare_cluster.engine.now
    assert inst_cluster.io_stats() == bare_cluster.io_stats()
    # The instrumented run did actually record something.
    assert len(inst_cluster.obs.spans) > 0
    assert len(inst_cluster.obs.metrics) > 0


#: Deterministic fingerprint of ``run_workload`` under the default
#: config, captured before commit batching was merged.  The feature is
#: default-off and must be byte-identical when off -- every paper table
#: and figure reproduction depends on this baseline not moving.
SEED_FINGERPRINT = {
    "now": 3.3505512,
    "io": {"io.total": 50, "io.write.data": 10, "io.write.inode": 12,
           "io.write.log": 16, "io.write.log_inode": 12},
    "net_messages": 68,
    "net_bytes": 4544,
    "outcomes": [("done", 0.4573352000000001), ("done", 1.0622952),
                 ("done", 1.3505512), ("done", 0.7524680000000002)],
}


def test_feature_off_matches_pinned_seed_fingerprint():
    """With ``commit_batching`` left off (the default) the workload is
    byte-identical to the pre-feature seed: same clock, same categorized
    I/O, same message traffic, same outcomes."""
    cluster, outcomes = run_workload(instrument=False)
    assert cluster.engine.now == SEED_FINGERPRINT["now"]
    assert dict(cluster.io_stats()) == SEED_FINGERPRINT["io"]
    assert cluster.network.stats.get("net.messages") \
        == SEED_FINGERPRINT["net_messages"]
    assert cluster.network.stats.get("net.bytes") \
        == SEED_FINGERPRINT["net_bytes"]
    assert outcomes == SEED_FINGERPRINT["outcomes"]


def test_explicit_off_equals_default():
    """``commit_batching=False`` spelled out is the same simulation as
    the default config."""
    default_cluster, default_outcomes = run_workload(instrument=False)
    off_cluster, off_outcomes = run_workload(
        instrument=False, config=SystemConfig(commit_batching=False))
    assert off_outcomes == default_outcomes
    assert off_cluster.engine.now == default_cluster.engine.now
    assert off_cluster.io_stats() == default_cluster.io_stats()


def test_zero_perturbation_holds_with_commit_batching():
    """Group commit, read-only votes, and phase-2 coalescing reschedule
    real work, so the *feature* may move the clock -- but observing it
    must not: instrumented and bare runs with ``commit_batching=True``
    are event-for-event identical."""
    bare_cluster, bare_outcomes = run_workload(
        False, config=SystemConfig(commit_batching=True))
    inst_cluster, inst_outcomes = run_workload(
        True, config=SystemConfig(commit_batching=True))

    assert inst_outcomes == bare_outcomes
    assert inst_cluster.engine.now == bare_cluster.engine.now
    assert inst_cluster.io_stats() == bare_cluster.io_stats()
    assert len(inst_cluster.obs.spans) > 0
    assert len(inst_cluster.obs.metrics) > 0


def test_zero_perturbation_holds_with_lock_cache():
    """The lease-cache instrumentation (hit/miss/recall counters and
    latency sketches) must also be a pure observer."""
    config = SystemConfig(lock_cache=True)
    bare_cluster, bare_outcomes = run_workload(False, config=config)
    inst_cluster, inst_outcomes = run_workload(True, config=SystemConfig(lock_cache=True))

    assert inst_outcomes == bare_outcomes
    assert inst_cluster.engine.now == bare_cluster.engine.now
    assert inst_cluster.io_stats() == bare_cluster.io_stats()
    # Identical cache behaviour, observed or not...
    for sid in (1, 2, 3):
        assert (inst_cluster.site(sid).leases.cache.stats
                == bare_cluster.site(sid).leases.cache.stats)
    # ...and the instrumented run recorded the cache counters.
    counters = inst_cluster.obs.metrics.counters_by_site()
    assert any("lock.cache" in name
               for values in counters.values() for name in values)


# ----------------------------------------------------------------------
# monitors + timeline (PR 5): still zero perturbation
# ----------------------------------------------------------------------

def _fingerprint(cluster, outcomes):
    return {
        "now": cluster.engine.now,
        "io": dict(cluster.io_stats()),
        "net_messages": cluster.network.stats.get("net.messages"),
        "net_bytes": cluster.network.stats.get("net.bytes"),
        "outcomes": outcomes,
    }


@pytest.mark.parametrize("lock_cache", [False, True])
@pytest.mark.parametrize("commit_batching", [False, True])
def test_monitors_and_timeline_are_pure_observers(lock_cache, commit_batching):
    """Across the feature matrix, turning the protocol monitors and the
    timeline on changes *nothing* the simulation can see."""
    config = SystemConfig(lock_cache=lock_cache,
                          commit_batching=commit_batching)
    bare_cluster, bare_outcomes = run_workload(False, config=config)
    inst_cluster, inst_outcomes = run_workload(
        True, config=SystemConfig(lock_cache=lock_cache,
                                  commit_batching=commit_batching),
        monitors=True, timeline_tick=0.25,
    )
    assert _fingerprint(inst_cluster, inst_outcomes) \
        == _fingerprint(bare_cluster, bare_outcomes)
    # The monitored run actually monitored (and found nothing).
    hub = inst_cluster.obs.monitors
    assert hub is not None and hub.events_seen > 0
    assert hub.total_violations == 0
    # ...and the timeline actually sampled.
    assert inst_cluster.obs.timeline is not None
    assert inst_cluster.obs.timeline.points > 0


def test_monitored_run_matches_pinned_seed_fingerprint():
    """The pinned pre-feature fingerprint still holds with monitors and
    timeline on: byte-identical clock, I/O, traffic and outcomes."""
    cluster, outcomes = run_workload(True, monitors=True,
                                     timeline_tick=0.25)
    assert _fingerprint(cluster, outcomes) == SEED_FINGERPRINT
    assert cluster.obs.monitors.total_violations == 0


# ----------------------------------------------------------------------
# SLO tracking and a full span archive: still zero perturbation
# ----------------------------------------------------------------------

@pytest.mark.parametrize("lock_cache", [False, True])
@pytest.mark.parametrize("commit_batching", [False, True])
def test_sampling_and_slo_are_pure_observers(lock_cache, commit_batching):
    """The SLO tracker rides on top of monitors + timeline across the
    feature matrix without moving a single observable."""
    config = SystemConfig(lock_cache=lock_cache,
                          commit_batching=commit_batching)
    bare_cluster, bare_outcomes = run_workload(False, config=config)
    inst_cluster, inst_outcomes = run_workload(
        True, config=SystemConfig(lock_cache=lock_cache,
                                  commit_batching=commit_batching),
        monitors=True, timeline_tick=0.25,
    )
    assert _fingerprint(inst_cluster, inst_outcomes) \
        == _fingerprint(bare_cluster, bare_outcomes)
    # The SLO tracker is attached (mixes arrive via the scaling driver;
    # this workload is untagged, so it records nothing).
    assert inst_cluster.obs.slo is not None


def test_sampled_run_matches_pinned_seed_fingerprint():
    """The pinned pre-feature fingerprint holds with monitors and
    timeline on and a span recorder that fills up early and drops the
    rest: byte-identical clock, I/O, traffic and outcomes."""
    cluster, outcomes = run_workload(True, monitors=True,
                                     timeline_tick=0.25, span_capacity=20)
    assert _fingerprint(cluster, outcomes) == SEED_FINGERPRINT
    assert cluster.obs.monitors.total_violations == 0
    assert len(cluster.obs.spans) == 20 and cluster.obs.spans.dropped > 0


# ----------------------------------------------------------------------
# abort provenance (PR 10): still zero perturbation
# ----------------------------------------------------------------------

@pytest.mark.parametrize("lock_cache", [False, True])
@pytest.mark.parametrize("commit_batching", [False, True])
def test_provenance_is_a_pure_observer(lock_cache, commit_batching):
    """Abort-provenance classification rides on the full observability
    stack across the feature matrix without moving a single observable:
    recording a cause never charges CPU or advances the clock."""
    config = SystemConfig(lock_cache=lock_cache,
                          commit_batching=commit_batching)
    bare_cluster, bare_outcomes = run_workload(False, config=config)
    inst_cluster, inst_outcomes = run_workload(
        True, config=SystemConfig(lock_cache=lock_cache,
                                  commit_batching=commit_batching),
        monitors=True, timeline_tick=0.25, provenance=True,
    )
    assert _fingerprint(inst_cluster, inst_outcomes) \
        == _fingerprint(bare_cluster, bare_outcomes)
    # The hub is live (this clean workload just has nothing to classify).
    assert inst_cluster.obs.provenance is not None
    assert len(inst_cluster.obs.provenance) == 0


def test_provenance_matches_pinned_seed_fingerprint():
    """The provenance hub on top of monitors and timeline leaves the
    pinned pre-feature fingerprint byte-identical: clock, categorized
    I/O, message traffic, and outcomes."""
    cluster, outcomes = run_workload(True, monitors=True,
                                     timeline_tick=0.25, provenance=True)
    assert cluster.obs.provenance is not None
    assert _fingerprint(cluster, outcomes) == SEED_FINGERPRINT
    assert cluster.obs.monitors.total_violations == 0


# ----------------------------------------------------------------------
# one event stream: each subscriber attached on its own
# ----------------------------------------------------------------------

SUBSCRIBERS = ("monitors", "timeline", "slo", "provenance")


def _filled(name, obs):
    """The subscriber's own section, read after the run."""
    if name == "monitors":
        section = obs.monitors.section()
        return section["events"] > 0 and section["total_violations"] == 0
    if name == "timeline":
        section = obs.timeline.section()
        return section["points"] > 0 and all(
            "txn.active" in section["sites"][str(site)]["gauges"]
            for site in (1, 2, 3))
    if name == "slo":
        objectives = obs.slo.section()["mixes"]["banking"]["objectives"]
        return {o["metric"]: o["total"] for o in objectives} == {
            "commit.latency": 4, "abort.rate": 4}
    # A clean workload: every transaction committed, no cause.
    return obs.provenance.section()["total"] == 0


@pytest.mark.parametrize("name", SUBSCRIBERS)
def test_each_subscriber_alone_matches_pinned_seed_fingerprint(name):
    """``Observability(engine).install()`` plus exactly one ``attach_*``
    call: the subscriber finds its announcements on its own, fills its
    own section, and the run stays byte-identical."""
    attached = {}

    def attach(cluster):
        obs = attached["obs"] = Observability(cluster.engine).install()
        getattr(obs, "attach_" + name)()
        if name == "slo":
            mix = MIXES["banking"]
            obs.event("mix.declare", None, mix.name, mix.slos)

    cluster, outcomes = run_workload(False, attach=attach, mix="banking")
    obs = attached["obs"]
    assert _fingerprint(cluster, outcomes) == SEED_FINGERPRINT
    assert _filled(name, obs)
    others = {"monitors": obs.monitors, "timeline": obs.timeline,
              "slo": obs.slo, "provenance": obs.provenance}
    assert [n for n, sub in others.items() if sub is not None] == [name]


def test_an_unheard_kind_calls_no_handler_and_builds_no_event(eng, monkeypatch):
    """An announcement nobody subscribes to is one dict lookup: no
    handler runs and no event object is constructed."""
    import repro.obs

    class NoEvent:
        def __init__(self, *args):
            raise AssertionError("an event object was built")

    monkeypatch.setattr(repro.obs, "MonitorEvent", NoEvent)
    obs = Observability(eng).install()
    heard = []
    obs.subscribe("timeline", [("disk.queue", heard.append)])
    assert obs.event("rpc.send", 1) is None
    assert obs.event("txn.state", 1, None, None, "active") is None
    assert heard == []
    with pytest.raises(AssertionError, match="event object"):
        obs.event("disk.queue", 1, 1.0, None)


def test_subscribers_run_in_the_inline_order_whatever_the_attach_order(eng):
    """The monitors hear a grant before the timeline's gauges move; a
    transaction's state moves the gauges first."""
    obs = Observability(eng).install()
    heard = []
    for name in ("provenance", "slo", "timeline", "monitors"):
        obs.subscribe(name, [
            (kind, lambda ev, name=name: heard.append((ev.kind, name)))
            for kind in ("lock.grant", "txn.state")])
    obs.event("lock.grant", site_id=1)
    obs.event("txn.state", site_id=1)
    assert heard == [
        ("lock.grant", "monitors"), ("lock.grant", "timeline"),
        ("lock.grant", "slo"), ("lock.grant", "provenance"),
        ("txn.state", "timeline"), ("txn.state", "monitors"),
        ("txn.state", "slo"), ("txn.state", "provenance"),
    ]
