"""Critical-path extraction: exact partition, category blame, and the
tolerance-free reconciliation against the commit.latency sketches."""

import pytest

from repro.analysis.report import run_scenario
from repro.obs import Observability
from repro.obs.critpath import (
    Category,
    blame_totals,
    categorize,
    children_index,
    critical_path,
    critpath_section,
    to_ns,
    transaction_paths,
)
from tests.conftest import drive


def obs_on(eng):
    return Observability(eng).install()


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
    root, = obs.spans.select(name="txn")
    segments = critical_path(root, children_index(obs.spans))
    assert [seg.span for seg in segments] == [root]
    assert blame_totals(segments) == {Category.CPU: to_ns(0.5)}


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
    root, = obs.spans.select(name="txn")
    segments = critical_path(root, children_index(obs.spans))
    totals = blame_totals(segments)
    assert totals == {
        Category.CPU: to_ns(0.2),
        Category.LOCK_WAIT: to_ns(0.3),
    }
    # Exact partition: no gaps, no overlaps, telescoping to the window.
    assert segments[0].start_ns == to_ns(root.start)
    assert segments[-1].end_ns == to_ns(root.end)
    for a, b in zip(segments, segments[1:]):
        assert a.end_ns == b.start_ns


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
    root, = obs.spans.select(name="txn")
    segments = critical_path(root, children_index(obs.spans))
    assert len(segments) == 1
    assert segments[0].span.name == "disk.write"
    assert segments[0].category == Category.DISK_IO


def test_disk_span_splits_at_queue_boundary(eng):
    obs = obs_on(eng)

    def prog():
        root = obs.span("txn", site_id=1)
        span = obs.span("disk.write", site_id=1)
        yield eng.timeout(0.10)
        obs.end(span, queued=0.04)   # 40 ms queued, 60 ms transferring
        obs.end(root)

    drive(eng, prog())
    root, = obs.spans.select(name="txn")
    totals = blame_totals(critical_path(root, children_index(obs.spans)))
    assert totals == {
        Category.DISK_QUEUE: to_ns(0.04),
        Category.DISK_IO: to_ns(0.06),
    }


def test_open_root_requires_now(eng):
    obs = obs_on(eng)

    def prog():
        obs.span("txn", site_id=1)
        yield eng.timeout(0.1)

    drive(eng, prog())
    root, = obs.spans.select(name="txn")
    index = children_index(obs.spans)
    with pytest.raises(ValueError):
        critical_path(root, index)
    segments = critical_path(root, index, now=eng.now)
    assert sum(seg.ns for seg in segments) == to_ns(0.1)


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
# integration: real scenarios
# ----------------------------------------------------------------------

def test_commit_scenario_category_sums_are_exact():
    """The acceptance criterion: per-transaction category sums equal the
    end-to-end latency EXACTLY -- integer nanoseconds, no tolerance."""
    cluster = run_scenario("commit")
    paths = transaction_paths(cluster.obs.spans)
    assert len(paths) == 6
    for path in paths:
        window = to_ns(path.root.end) - to_ns(path.root.start)
        assert sum(path.categories.values()) == path.total_ns == window
        assert path.commit_span is not None
        commit_window = (to_ns(path.commit_span.end)
                         - to_ns(path.commit_span.start))
        assert (sum(path.commit_categories.values())
                == path.commit_total_ns == commit_window)


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
    paths = transaction_paths(cluster.obs.spans)
    # Writers are staggered; the last one queues behind everyone and
    # lock.wait must dominate its decomposition.
    slowest = max(paths, key=lambda p: p.total_ns)
    assert slowest.categories[Category.LOCK_WAIT] > slowest.total_ns / 2


def test_critpath_section_shape_and_aggregates():
    cluster = run_scenario("commit")
    section = critpath_section(cluster.obs, top=2)
    assert len(section["transactions"]) == 6
    assert len(section["top"]) == 2
    # Aggregates are the columnwise sums of the per-transaction tables.
    for key, per_txn in (("categories", "categories"),):
        totals = {}
        for txn in section["transactions"]:
            for cat, ns in txn[per_txn].items():
                totals[cat] = totals.get(cat, 0) + ns
        assert section[key] == dict(sorted(totals.items()))
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
