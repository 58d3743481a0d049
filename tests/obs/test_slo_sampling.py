"""Per-mix SLO burn rates and tail-based trace sampling.

Unit coverage for the v8 observability additions: objective validation
and budget math, tracker burn accounting, the observe() -> mark_trace()
pin, the TailSampler's three keep rules (deterministic head hash,
must-keep marks, budgeted slowest-percentile), and the sampled-trace
mode of the span lint.
"""

import json
import zlib

import pytest

from repro import Cluster, drive
from repro.obs import Observability, build_report, to_chrome_trace, validate_report
from repro.obs.lint import lint_spans, lint_trace_spans, main as lint_main, spans_from_trace
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
    assert tracker.sample("banking", "commit.latency", 0.7) is True
    assert tracker.sample("banking", "commit.latency", 0.1) is False
    # Unmatched metric or mix: nothing recorded, nothing violated.
    assert tracker.sample("banking", "lock.wait", 99.0) is False
    assert tracker.sample("logging", "commit.latency", 99.0) is False
    assert len(tracker) == 2


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
        assert tracker.outcome("banking", "abort.rate", bad=i < 3) \
            is (i < 3)
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


def test_tracker_feeds_the_burn_gauge():
    spy = _GaugeSpy()
    _eng, tracker = _tracker(timeline=spy)
    tracker.sample("banking", "commit.latency", 0.9)
    tracker.outcome("banking", "abort.rate", bad=False)
    names = {name for _site, name, _v in spy.calls}
    assert names == {"slo.burn.banking"}
    # The gauge carries the running worst burn across objectives.
    assert spy.calls[-1][2] == pytest.approx((1 / 1) / 0.1)


def test_violating_sample_pins_the_current_trace(eng):
    obs = Observability(eng).install()
    obs.spans.attach_sampler(head_rate=0.0)
    tracker = obs.attach_slo()
    tracker.declare("banking", (
        SloObjective("commit.latency", bound=0.5, percentile=99.0),
    ))
    seen = {}

    def prog():
        span = obs.span("txn", root=True, site_id=1)
        seen["trace"] = span.trace_id
        obs.observe(1, "commit.latency", 0.9, mix="banking")
        obs.end(span)
        yield eng.timeout(0)

    drive_gen(eng, prog())
    sampler = obs.spans.sampler
    assert seen["trace"] in sampler._marked
    assert [s.trace_id for s in obs.spans.spans] == [seen["trace"]]


# ----------------------------------------------------------------------
# TailSampler: head hash, marks, slow keeps, flush
# ----------------------------------------------------------------------

def _run_roots(durations, name="op", tids=None, **sampler_kw):
    """Drive sequential root spans of the given durations; returns
    (recorder, [trace_id per root])."""
    eng = Engine()
    obs = Observability(eng).install()
    obs.spans.attach_sampler(**sampler_kw)
    traces = []

    def prog():
        for i, duration in enumerate(durations):
            tid = tids[i] if tids is not None else str(i)
            span = obs.span(name, root=True, site_id=1, tid=tid)
            traces.append(span.trace_id)
            yield eng.timeout(duration)
            obs.end(span)

    drive_gen(eng, prog())
    obs.spans.flush_sampler()
    return obs.spans, traces


def test_head_sampling_is_a_deterministic_hash_of_the_txn_id():
    tids = ["txn-%d" % i for i in range(40)]
    recorder, traces = _run_roots([0.001] * 40, tids=tids,
                                  head_rate=0.3, min_slow_count=10 ** 6)
    expected = {
        traces[i] for i, tid in enumerate(tids)
        if zlib.crc32(tid.encode("ascii")) / 2 ** 32 < 0.3
    }
    assert {s.trace_id for s in recorder.spans} == expected
    # Same workload, same decisions: the hash has no run-order state.
    recorder2, traces2 = _run_roots([0.001] * 40, tids=tids,
                                    head_rate=0.3, min_slow_count=10 ** 6)
    assert [s.trace_id in expected for s in recorder.spans] \
        == [s2.trace_id in {traces2[i] for i, t in enumerate(tids)
                            if traces[i] in expected}
            for s2 in recorder2.spans]


def test_mark_keeps_the_whole_tree_and_unmarked_trees_are_freed(eng):
    obs = Observability(eng).install()
    sampler = obs.spans.attach_sampler(head_rate=0.0, min_slow_count=10 ** 6)
    kept = {}

    def prog():
        for i in range(5):
            root = obs.span("txn", root=True, site_id=1, tid="t%d" % i)
            child = obs.span("lock.wait", site_id=1)
            if i == 2:
                obs.spans.mark_trace()
                kept["trace"] = root.trace_id
            yield eng.timeout(0.01)
            obs.end(child)
            obs.end(root)

    drive_gen(eng, prog())
    obs.spans.flush_sampler()
    assert {s.trace_id for s in obs.spans.spans} == {kept["trace"]}
    # The whole two-span tree survived; the four others were freed.
    assert len(obs.spans.spans) == 2
    assert sampler.kept_traces == 1
    assert sampler.dropped_traces == 4
    assert sampler.dropped_spans == 8


def test_mark_after_drop_is_counted_not_resurrected():
    recorder, traces = _run_roots([0.001] * 3, head_rate=0.0,
                                  min_slow_count=10 ** 6)
    sampler = recorder.sampler
    assert len(recorder.spans) == 0
    sampler.mark(traces[0])
    assert sampler.late_marks == 1
    assert traces[0] not in sampler._marked


def test_slow_keep_retains_the_outlier_against_its_own_population():
    # 20 fast roots bootstrap the window, then one 1000x outlier.
    durations = [0.001] * 20 + [1.0] + [0.001] * 5
    recorder, traces = _run_roots(durations, head_rate=0.0,
                                  slow_percentile=90.0, min_slow_count=10)
    assert {s.trace_id for s in recorder.spans} == {traces[20]}


def test_slow_keep_budget_caps_a_monotone_ramp():
    # A closed-loop saturation ramp: every root slower than every
    # earlier one.  The per-name budget keeps the fraction bounded.
    durations = [0.01 * (i + 1) for i in range(100)]
    recorder, _traces = _run_roots(durations, head_rate=0.0,
                                   slow_percentile=90.0, min_slow_count=10)
    assert 0 < recorder.sampler.kept_traces <= 10


def test_flush_decides_never_closed_traces_and_restores_order(eng):
    obs = Observability(eng).install()
    obs.spans.attach_sampler(head_rate=1.0)

    def prog():
        hung = obs.span("txn", root=True, site_id=1, tid="hung")
        done = obs.span("txn", root=True, site_id=1, tid="done")
        yield eng.timeout(0.01)
        obs.end(done)
        _ = hung  # never closed: decided only at flush

    drive_gen(eng, prog())
    assert len(obs.spans.spans) < 2   # the hung trace is still buffered
    obs.spans.flush_sampler()
    assert [s.span_id for s in obs.spans.spans] \
        == sorted(s.span_id for s in obs.spans.spans)
    assert len(obs.spans.spans) == 2


def test_peak_counters_split_archive_from_buffer():
    recorder, _ = _run_roots([0.001] * 30, head_rate=1.0,
                             min_slow_count=10 ** 6)
    sampler = recorder.sampler
    assert sampler.peak_retained == len(recorder.spans) == 30
    assert sampler.peak_buffered >= 1
    assert recorder.peak_retained() == sampler.peak_retained


# ----------------------------------------------------------------------
# lint: sampled traces skip the whole-file completeness rules
# ----------------------------------------------------------------------

def test_lint_autodetects_a_sampler_and_skips_completeness():
    recorder, traces = _run_roots([0.001] * 10, head_rate=0.3,
                                  min_slow_count=10 ** 6,
                                  tids=["txn-%d" % i for i in range(10)])
    assert lint_spans(recorder) == []
    # The per-tree rules still run when forced unsampled -- and pass,
    # because retention is all-or-nothing per tree.
    assert lint_spans(recorder, sampled=False) == []


def _span_event(trace_id, span_id, parent_id, ts=0.0, dur=1.0):
    return {
        "name": "txn", "cat": "txn", "ph": "X",
        "ts": ts * 1e6, "dur": dur * 1e6, "pid": 1, "tid": 0,
        "args": {"trace_id": trace_id, "span_id": span_id,
                 "parent_id": parent_id},
    }


def test_sampling_header_switches_the_trace_file_rules():
    # A child whose parent was (legitimately) not retained.
    events = [_span_event(7, 2, parent_id=1)]
    unsampled = {"traceEvents": events}
    rules = {v.rule for v in lint_trace_spans(unsampled)}
    assert rules == {"orphan", "no-root"}
    sampled = {"traceEvents": events,
               "sampling": {"enabled": True, "head_rate": 0.05}}
    assert lint_trace_spans(sampled) == []


def test_trace_round_trip_preserves_spans_and_the_header():
    recorder, _ = _run_roots([0.001] * 10, head_rate=1.0,
                             min_slow_count=10 ** 6)
    doc = json.loads(json.dumps(to_chrome_trace(recorder)))
    spans, sampled = spans_from_trace(doc)
    assert sampled is True
    assert [s.span_id for s in spans] \
        == [s.span_id for s in recorder.spans]
    assert lint_trace_spans(doc) == []


def test_lint_cli_spans_mode(tmp_path, capsys):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps({
        "traceEvents": [_span_event(7, 2, parent_id=1)],
        "sampling": {"enabled": True},
    }))
    assert lint_main(["--spans", str(path)]) == 0
    assert "(sampled)" in capsys.readouterr().out
    # The same file without the header fails the completeness rules.
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({
        "traceEvents": [_span_event(7, 2, parent_id=1)],
    }))
    assert lint_main(["--spans", str(bare)]) == 1
    with pytest.raises(SystemExit):
        lint_main(["--spans"])  # requires at least one file
    with pytest.raises(SystemExit):
        lint_main(["--spans", "--monitors", str(path)])


# ----------------------------------------------------------------------
# report plumbing: slo + spans.sampling sections validate at v8
# ----------------------------------------------------------------------

def test_report_carries_slo_and_sampling_sections():
    cluster = Cluster(site_ids=(1,))
    obs = cluster.enable_observability()
    obs.attach_sampler(head_rate=0.5)
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
    assert doc["spans"]["sampling"]["enabled"] is True
    banking = doc["slo"]["mixes"]["banking"]
    assert banking["ok"] is False
    assert banking["objectives"][0]["bad"] == 1
    # The per-mix sketch section rode along with the tagged samples.
    assert "commit.latency" in doc["sketches"]["1"]["banking"]
