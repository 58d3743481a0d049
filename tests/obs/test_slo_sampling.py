"""Per-mix SLO burn rates and a capacity-bound recorder.

Unit coverage for objective validation and budget math, tracker burn
accounting, and the Chrome-trace export and live span lint of a
recorder that hit its capacity.
"""

import json

import pytest

from repro import Cluster, drive
from repro.obs import Observability, build_report, to_chrome_trace, validate_report
from repro.obs.lint import lint_spans
from repro.obs.slo import SloObjective, SloTracker
from repro.sim import Engine
from repro.workloads.txngen import MIXES
from tests.conftest import drive as drive_gen


# ----------------------------------------------------------------------
# SloObjective: validation, budget, naming
# ----------------------------------------------------------------------

def test_objective_rejects_bad_declarations():
    with pytest.raises(ValueError):
        SloObjective("x", bound=1.0, kind="throughput")
    with pytest.raises(ValueError):
        SloObjective("x", bound=1.0, kind="latency", percentile=100.0)
    with pytest.raises(ValueError):
        SloObjective("x", bound=0.0)
    with pytest.raises(ValueError):
        SloObjective("x", bound=1.0, kind="rate")


def test_objective_budget_and_name():
    latency = SloObjective("commit.latency", bound=0.5, kind="latency",
                           percentile=99.0)
    assert latency.budget == pytest.approx(0.01)
    assert latency.name == "commit.latency.p99"
    assert latency.is_bad(0.6) and not latency.is_bad(0.5)
    rate = SloObjective("abort.rate", bound=0.10, kind="rate")
    assert rate.budget == 0.10
    assert rate.name == "abort.rate"


def test_stock_mixes_declare_their_slos():
    assert [o.metric for o in MIXES["banking"].slos] \
        == ["commit.latency", "abort.rate"]
    assert [o.metric for o in MIXES["session"].slos] == ["client.latency"]
    assert MIXES["logging"].slos == ()


# ----------------------------------------------------------------------
# SloTracker: recording, burn math, the section payload
# ----------------------------------------------------------------------

class _GaugeSpy:
    def __init__(self):
        self.calls = []

    def gauge_set(self, site, name, value):
        self.calls.append((site, name, value))


def _tracker(timeline=None):
    eng = Engine()
    tracker = SloTracker(eng, timeline=timeline)
    tracker.declare("banking", (
        SloObjective("commit.latency", bound=0.5, kind="latency",
                     percentile=90.0),
        SloObjective("abort.rate", bound=0.10, kind="rate"),
    ))
    return eng, tracker


def test_sample_returns_true_only_for_violations():
    _eng, tracker = _tracker()
    tracker.sample("banking", "commit.latency", 0.7)
    tracker.sample("banking", "commit.latency", 0.1)
    # Unmatched metric or mix: nothing recorded, nothing violated.
    tracker.sample("banking", "lock.wait", 99.0)
    tracker.sample("logging", "commit.latency", 99.0)
    assert len(tracker) == 2
    row = tracker.section()["mixes"]["banking"]["objectives"][0]
    assert (row["total"], row["bad"]) == (2, 1)


def test_burn_is_bad_fraction_over_budget():
    _eng, tracker = _tracker()
    # p90 objective: budget 0.1.  2 bad out of 20 = exactly on budget.
    for i in range(20):
        tracker.sample("banking", "commit.latency",
                       0.9 if i < 2 else 0.1)
    section = tracker.section(window=0.25)
    row = section["mixes"]["banking"]["objectives"][0]
    assert row["total"] == 20 and row["bad"] == 2
    assert row["burn"] == pytest.approx(1.0)
    assert row["ok"] is True and section["ok"] is True


def test_rate_objective_burns_through_outcomes():
    _eng, tracker = _tracker()
    # abort.rate bound 0.10: 3 aborts in 10 txns = burn 3.0, a breach.
    for i in range(10):
        tracker.outcome("banking", "abort.rate", bad=i < 3)
    section = tracker.section(window=0.25)
    row = section["mixes"]["banking"]["objectives"][1]
    assert row["kind"] == "rate"
    assert row["burn"] == pytest.approx(3.0)
    assert row["ok"] is False
    assert section["total_breaches"] == 1
    assert section["worst_burn"] == pytest.approx(3.0)
    assert section["mixes"]["banking"]["ok"] is False


def test_windowed_series_localizes_the_burn():
    eng, tracker = _tracker()
    # Ten good samples in the first window, ten bad in the third.
    for _ in range(10):
        tracker.sample("banking", "commit.latency", 0.1)
    eng._now = 0.6  # advance virtual time between windows
    for _ in range(10):
        tracker.sample("banking", "commit.latency", 0.9)
    section = tracker.section(window=0.25, until=0.75)
    series = section["mixes"]["banking"]["objectives"][0]["series"]
    assert len(series) == 3
    assert series[0] == 0.0 and series[1] == 0.0
    assert series[2] == pytest.approx(10.0)  # all bad / 0.1 budget
    assert section["mixes"]["banking"]["objectives"][0]["worst_burn"] \
        == pytest.approx(10.0)


def test_unmatched_outcome_records_nothing():
    spy = _GaugeSpy()
    _eng, tracker = _tracker(timeline=spy)
    # A latency metric, an undeclared rate, an undeclared mix.
    tracker.outcome("banking", "commit.latency", bad=True)
    tracker.outcome("banking", "retry.rate", bad=True)
    tracker.outcome("logging", "abort.rate", bad=True)
    assert len(tracker) == 0
    assert spy.calls == []
    rows = tracker.section()["mixes"]["banking"]["objectives"]
    assert [(r["total"], r["bad"]) for r in rows] == [(0, 0), (0, 0)]


def test_observe_feeds_the_tracker_and_leaves_the_spans_alone():
    eng = Engine()
    obs = Observability(eng).install()
    tracker = obs.attach_slo()
    tracker.declare("banking", MIXES["banking"].slos)

    def prog():
        span = obs.span("txn", root=True, site_id=1)
        obs.observe(1, "commit.latency", 40.0, mix="banking")  # a breach
        obs.observe(1, "commit.latency", 40.0)                 # untagged
        obs.end(span)
        yield eng.timeout(0)

    drive_gen(eng, prog())
    row = tracker.section()["mixes"]["banking"]["objectives"][0]
    assert (row["total"], row["bad"]) == (1, 1)
    # A breach is recorded, not pinned: the archive is just the txn.
    assert [s.name for s in obs.spans.spans] == ["txn"]
    assert obs.spans.instants == []


def test_tracker_feeds_the_burn_gauge():
    spy = _GaugeSpy()
    _eng, tracker = _tracker(timeline=spy)
    tracker.sample("banking", "commit.latency", 0.9)
    tracker.outcome("banking", "abort.rate", bad=False)
    names = {name for _site, name, _v in spy.calls}
    assert names == {"slo.burn.banking"}
    # The gauge carries the running worst burn across objectives.
    assert spy.calls[-1][2] == pytest.approx((1 / 1) / 0.1)


# ----------------------------------------------------------------------
# a capacity-bound recorder: its export and its live lint
# ----------------------------------------------------------------------

def _capacity_bound_run(capacity=6):
    """Five root spans, each with one child, through a recorder that
    keeps ``capacity`` spans; returns the recorder."""
    eng = Engine()
    obs = Observability(eng, span_capacity=capacity).install()

    def prog():
        for i in range(5):
            root = obs.span("op", 1, root=True)
            child = obs.span("step", site_id=1)
            yield eng.timeout(0.001)
            obs.end(child)
            obs.end(root)

    drive_gen(eng, prog())
    return obs.spans


def test_trace_round_trip_preserves_span_ids_and_parents():
    recorder = _capacity_bound_run()
    assert recorder.dropped == 4
    doc = json.loads(json.dumps(to_chrome_trace(recorder)))
    ids = [(e["args"]["span_id"], e["args"]["parent_id"])
           for e in doc["traceEvents"] if e["ph"] == "X"]
    assert ids == [(s.span_id, s.parent_id) for s in recorder.spans]
    assert any(parent is not None for _span, parent in ids)
    assert set(doc) == {"traceEvents", "displayTimeUnit"}


def test_capacity_bound_run_lints_clean():
    recorder = _capacity_bound_run(capacity=3)
    assert recorder.dropped == 7
    # The third kept span is a root whose child was dropped.
    assert [s.parent_id is None for s in recorder.spans] == [True, False, True]
    assert lint_spans(recorder) == []


def test_capacity_bound_run_keeps_the_per_tree_rules():
    """Only the completeness rules are switched off: a child that points
    at a parent of another trace, or starts before it, is still wrong."""
    recorder = _capacity_bound_run()
    assert recorder.dropped > 0
    child = next(s for s in recorder.spans if s.parent_id is not None)
    child.trace_id += 1000
    child.start -= 1.0
    rules = sorted(v.rule for v in lint_spans(recorder))
    assert rules == ["time-travel", "trace-mismatch"]


def test_capacity_bound_run_still_flags_an_unclosed_span():
    recorder = _capacity_bound_run()
    recorder.spans[0].end = None
    assert [v.rule for v in lint_spans(recorder)] == ["unclosed"]


# ----------------------------------------------------------------------
# report plumbing: the slo section validates
# ----------------------------------------------------------------------

def test_report_carries_slo_and_sampling_sections():
    cluster = Cluster(site_ids=(1,))
    obs = cluster.enable_observability()
    tracker = obs.attach_slo()
    tracker.declare("banking", MIXES["banking"].slos)

    def prog(sysc):
        yield from sysc.sleep(0.01)
        return sysc.now

    proc = cluster.spawn(prog, site_id=1)
    cluster.run()
    assert proc.exit_status == "done"
    obs.observe(1, "commit.latency", 40.0, mix="banking")  # a breach
    obs.observe(1, "commit.latency", 0.01, mix="banking")
    for name in ("lock.wait", "rpc.rtt", "disk.io"):  # schema-required
        obs.observe(1, name, 0.001)
    doc = build_report(cluster, scenario="unit")
    validate_report(doc)
    banking = doc["slo"]["mixes"]["banking"]
    assert banking["ok"] is False
    assert banking["objectives"][0]["bad"] == 1
    # The per-mix sketch section rode along with the tagged samples.
    assert "commit.latency" in doc["sketches"]["1"]["banking"]


def test_report_counts_the_spans_a_full_recorder_dropped():
    cluster = Cluster(site_ids=(1,))
    obs = cluster.enable_observability()
    obs.spans.capacity = len(obs.spans) + 1

    def prog(sysc):
        for _ in range(3):
            span = obs.span("op", root=True, site_id=1)
            yield from sysc.sleep(0.01)
            obs.end(span)
        return sysc.now

    proc = cluster.spawn(prog, site_id=1)
    cluster.run()
    assert proc.exit_status == "done"
    for name in ("commit.latency", "lock.wait", "rpc.rtt", "disk.io"):
        obs.observe(1, name, 0.001)                    # schema-required
    doc = build_report(cluster, scenario="unit")
    validate_report(doc)
    assert doc["spans"]["recorded"] == obs.spans.capacity
    assert doc["spans"]["dropped"] == obs.spans.dropped > 0
    assert set(doc["spans"]) == {"recorded", "dropped", "traces", "instants"}
