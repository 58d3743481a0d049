"""The blame table: exact partition, category blame, one walk per
window, and the tolerance-free reconciliation against the
commit.latency sketches."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs.critpath as critpath
from repro.analysis.report import run_scenario
from repro.obs import Observability
from repro.obs.critpath import (
    BlameTable,
    Category,
    categorize,
    contention_view,
    critpath_section,
    critpath_view,
    to_ns,
)
from repro.locking import LockMode
from repro.obs.span import Span
from repro.sim.kinds import SPANS
from repro.obs.waste import waste_view
from tests.conftest import drive


def obs_on(eng):
    return Observability(eng).install()


def window_rows(table, root, window="txn"):
    return [row for row in table.rows
            if row.attempt is root and row.window == window]


def assert_partitions(table):
    """Every attempt's rows cover its ``txn`` window, and its ``2pc``
    window when it has one, with no gaps and no overlaps."""
    for root in table.attempts:
        for window, span in (("txn", root), ("2pc", table.commit_spans[root])):
            rows = window_rows(table, root, window)
            if span is None or to_ns(span.end) <= to_ns(span.start):
                assert rows == []
                continue
            assert rows[0].start_ns == to_ns(span.start)
            assert rows[-1].end_ns == to_ns(span.end)
            for a, b in zip(rows, rows[1:]):
                assert a.end_ns == b.start_ns
            assert all(row.ns > 0 for row in rows)


# ----------------------------------------------------------------------
# unit: synthetic trees on a bare engine
# ----------------------------------------------------------------------

def test_single_span_is_all_self_time(eng):
    obs = obs_on(eng)

    def prog():
        span = obs.span("txn", site_id=1)
        yield eng.timeout(0.5)
        obs.end(span)

    drive(eng, prog())
    table = BlameTable(obs)
    root, = table.attempts
    assert [row.span for row in window_rows(table, root)] == [root]
    assert table.blame("txn") == {root: {Category.CPU: to_ns(0.5)}}


def test_child_takes_blame_over_parent(eng):
    obs = obs_on(eng)

    def prog():
        root = obs.span("txn", site_id=1)
        yield eng.timeout(0.1)
        wait = obs.span("lock.wait", site_id=1)
        yield eng.timeout(0.3)
        obs.end(wait)
        yield eng.timeout(0.1)
        obs.end(root)

    drive(eng, prog())
    table = BlameTable(obs)
    root, = table.attempts
    assert table.blame("txn")[root] == {
        Category.CPU: to_ns(0.2),
        Category.LOCK_WAIT: to_ns(0.3),
    }
    assert_partitions(table)


def test_deepest_active_descendant_wins(eng):
    obs = obs_on(eng)

    def prog():
        root = obs.span("txn", site_id=1)
        mid = obs.span("syscall.write", site_id=1)
        leaf = obs.span("disk.write", site_id=1)
        yield eng.timeout(0.2)
        obs.end(leaf)
        obs.end(mid)
        obs.end(root)

    drive(eng, prog())
    table = BlameTable(obs)
    row, = window_rows(table, table.attempts[0])
    assert row.span.name == "disk.write"
    assert row.category == Category.DISK_IO


def test_disk_span_splits_at_queue_boundary(eng):
    obs = obs_on(eng)

    def prog():
        root = obs.span("txn", site_id=1)
        span = obs.span("disk.write", 1, "d0", 3, "io.write.data")
        yield eng.timeout(0.10)
        obs.end(span, None, 0.04)   # 40 ms queued, 60 ms transferring
        obs.end(root)

    drive(eng, prog())
    table = BlameTable(obs)
    root, = table.attempts
    assert table.blame("txn")[root] == {
        Category.DISK_QUEUE: to_ns(0.04),
        Category.DISK_IO: to_ns(0.06),
    }


def test_categorize_covers_known_span_names(eng):
    obs = obs_on(eng)

    def prog():
        for name in ("lock.wait", "rpc.call", "rpc.serve", "2pc",
                     "2pc.prepare", "2pc.apply", "groupcommit.wait",
                     "disk.read", "syscall.open", "txn"):
            obs.end(obs.span(name))
        yield eng.timeout(0)

    drive(eng, prog())
    by_name = {s.name: categorize(s) for s in obs.spans.spans}
    assert by_name["lock.wait"] == Category.LOCK_WAIT
    assert by_name["rpc.call"] == Category.NET
    assert by_name["rpc.serve"] == Category.RPC_SERVER
    assert by_name["2pc"] == Category.PHASE1
    assert by_name["2pc.prepare"] == Category.PHASE1
    assert by_name["2pc.apply"] == Category.PHASE2
    assert by_name["groupcommit.wait"] == Category.GROUP_COMMIT
    assert by_name["disk.read"] == Category.DISK_IO
    assert by_name["syscall.open"] == Category.CPU
    assert by_name["txn"] == Category.CPU


# ----------------------------------------------------------------------
# property: random span forests
# ----------------------------------------------------------------------

_CHILD_NAMES = ("syscall.write", "lock.wait", "disk.write", "rpc.call",
                "rpc.serve", "2pc", "2pc.apply", "groupcommit.wait")


@st.composite
def span_forests(draw):
    """A finished run's archive: ``txn`` roots (some aborted) with
    nested children -- some outliving their parent, some never closed
    -- plus lock waits and disk I/Os outside any root.  Times are whole
    microseconds; lock-wait keys stay within one contention page."""
    spans = []

    def add(name, parent, lo, hi, tid=None, mix=None):
        # Raw values in the declared order, as protocol code hands them.
        site = draw(st.sampled_from((1, 2)))
        values = ()
        if name == "txn":
            values = (tid, 0, mix)
        elif name == "lock.wait":
            values = (draw(st.sampled_from(("f", "g"))), ("txn", len(spans)),
                      LockMode.EXCLUSIVE,
                      draw(st.sampled_from((0, 100, 4096))), 0,
                      [("txn", n) for n in sorted(draw(st.sets(
                          st.sampled_from((1, 2)), max_size=2)))])
        elif name.startswith("disk.") and hi is not None:
            values = ("d", 0, "io.read.data", draw(st.sampled_from(
                (None, 0.0, 1e-12, (hi - lo) * 1e-6 / 2))))
        span = Span(len(spans), len(spans) + 1,
                    None if parent is None else parent.span_id, name,
                    site, 0, lo * 1e-6, SPANS.get(name, ()), values, None)
        if hi is not None:
            span.end = hi * 1e-6
        spans.append(span)
        return span

    def grow(parent, lo, hi, depth):
        for _ in range(draw(st.integers(0, 3 if depth < 3 else 0))):
            a = draw(st.integers(lo, hi + 50))
            b = draw(st.one_of(st.integers(a, a + 400), st.none()))
            child = add(draw(st.sampled_from(_CHILD_NAMES)), parent, a, b)
            grow(child, a, a + 400 if b is None else b, depth + 1)

    for i in range(draw(st.integers(1, 4))):
        lo = draw(st.integers(0, 1000))
        hi = draw(st.integers(lo, lo + 2000))
        root = add("txn", None, lo, hi, tid=str(i),
                   mix=draw(st.sampled_from((None, "transfer"))))
        root.status = draw(st.sampled_from(("committed", "aborted")))
        grow(root, lo, hi, 1)
    for _ in range(draw(st.integers(0, 4))):
        lo = draw(st.integers(0, 3000))
        add(draw(st.sampled_from(("lock.wait", "disk.read"))), None,
            lo, draw(st.integers(lo, lo + 500)))
    return spans


@settings(max_examples=200, deadline=None)
@given(span_forests())
def test_views_agree_on_random_span_forests(spans):
    """One invariant for every view: the attempt rows partition each
    attempt's window exactly, so critpath's totals are waste's
    committed + wasted time, and contention's untruncated lock total
    is every closed lock.wait span's time."""
    obs = SimpleNamespace(spans=SimpleNamespace(spans=spans),
                          provenance=None, engine=SimpleNamespace(now=3.5e-3))
    table = BlameTable(obs)
    assert len(table.attempts) == sum(s.name == "txn" for s in spans)
    assert_partitions(table)

    section = critpath_view(table)
    waste = waste_view(table)
    total = sum(txn["total_ns"] for txn in section["transactions"])
    assert total == waste["committed_ns"] + waste["wasted_ns"]
    assert sum(section["categories"].values()) == total
    assert sum(waste["categories"].values()) == waste["wasted_ns"]

    contention = contention_view(table)
    assert contention["lock_resources_total"] == len(
        contention["lock_resources"])
    assert sum(e["total_ns"] for e in contention["lock_resources"]) == sum(
        to_ns(s.end) - to_ns(s.start)
        for s in spans if s.name == "lock.wait" and s.end is not None)


# ----------------------------------------------------------------------
# integration: real scenarios
# ----------------------------------------------------------------------

def test_commit_scenario_category_sums_are_exact():
    """The acceptance criterion: per-transaction category sums equal the
    end-to-end latency EXACTLY -- integer nanoseconds, no tolerance."""
    cluster = run_scenario("commit")
    table = BlameTable(cluster.obs)
    assert len(table.attempts) == 6
    assert None not in table.commit_spans.values()
    assert_partitions(table)


@pytest.mark.parametrize("scenario, walks", [("commit", 12),
                                             ("throughput", 96)])
def test_report_walks_each_critical_path_once(monkeypatch, scenario, walks):
    """A report builds one blame table: one critical-path walk per
    closed ``txn`` root and one per closed ``2pc`` span, shared by the
    critpath, contention, waste and hotness sections."""
    calls = []
    original = critpath.critical_path

    def counting(root, index):
        calls.append(root)
        return original(root, index)

    monkeypatch.setattr(critpath, "critical_path", counting)
    cluster = run_scenario(scenario)
    closed = [s for s in cluster.obs.spans.spans
              if s.name in ("txn", "2pc") and s.end is not None]
    assert len(calls) == len(closed) == walks


def test_commit_window_matches_histogram_sample_bit_for_bit():
    """The 2pc span and the commit.latency sample measure the same two
    clock reads, so the durations are equal as floats -- not close,
    equal."""
    cluster = run_scenario("commit")
    obs = cluster.obs
    per_site = {}
    for span in obs.spans.select(name="2pc"):
        per_site.setdefault(span.site_id, []).append(span)
    for site, spans in sorted(per_site.items()):
        # The sketch's sum accumulated the samples in observation order
        # (= span close order); folding the span durations in that same
        # order reproduces the float sum exactly.
        spans.sort(key=lambda s: (s.end, s.span_id))
        acc = 0.0
        for span in spans:
            acc += span.duration
        summary = obs.metrics.by_site()[str(site)]["commit.latency"]
        assert acc == summary["sum"]
        assert len(spans) == summary["count"]


def test_lock_wait_dominates_contended_transactions():
    cluster = run_scenario("commit")
    section = cluster.report_sections["critpath"]
    # Writers are staggered; the last one queues behind everyone and
    # lock.wait must dominate its decomposition.
    slowest = max(section["transactions"], key=lambda t: t["total_ns"])
    assert slowest["categories"][Category.LOCK_WAIT] > slowest["total_ns"] / 2


def test_critpath_section_shape_and_aggregates():
    cluster = run_scenario("commit")
    section = critpath_section(cluster.obs)
    assert section == cluster.report_sections["critpath"]
    assert len(section["transactions"]) == 6
    assert len(section["top"]) == 3
    # Aggregates are the columnwise sums of the per-transaction tables.
    for key, per_txn in (("categories", "categories"),):
        totals = {}
        for txn in section["transactions"]:
            for cat, ns in txn[per_txn].items():
                totals[cat] = totals.get(cat, 0) + ns
        assert section[key] == totals
    # Drill-down steps partition each top transaction's total.
    for entry in section["top"]:
        assert sum(step["self_ns"] for step in entry["steps"]) == entry["total_ns"]


def test_critpath_section_in_report_validates():
    from repro.obs import build_report, validate_report
    from repro.obs.schema import SchemaError

    cluster = run_scenario("commit")
    report = build_report(cluster, scenario="commit")
    assert report["schema"] == "repro.bench_report/10"
    assert "critpath" in report and "contention" in report
    validate_report(report)
    # The validator enforces the exact-sum invariant.
    report["critpath"]["transactions"][0]["total_ns"] += 1
    with pytest.raises(SchemaError):
        validate_report(report)


def test_groupcommit_category_appears_under_batching():
    cluster = run_scenario("throughput")
    section = cluster.report_sections["critpath"]
    assert section["categories"].get(Category.GROUP_COMMIT, 0) > 0
