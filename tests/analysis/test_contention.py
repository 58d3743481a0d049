"""Contention attribution: the blame table's resource and waits-for
view."""

from repro.analysis.report import render_contention_table, run_scenario
from repro.locking import LockMode
from repro.obs import Observability
from repro.obs.critpath import BlameTable, contention_view
from tests.conftest import drive


def obs_on(eng):
    return Observability(eng).install()


# ----------------------------------------------------------------------
# unit: synthetic spans
# ----------------------------------------------------------------------

def _holder(label):
    kind, number = label.split(":")
    return (kind, int(number))


def _wait(obs, eng, seconds, *, file, start, holder, blocked_by):
    # The lock manager's raw values; the span keeps them as text.
    span = obs.span("lock.wait", 1, file, _holder(holder),
                    LockMode.EXCLUSIVE, start, start + 1,
                    [_holder(b) for b in blocked_by])
    yield eng.timeout(seconds)
    obs.end(span)


def test_lock_resources_aggregate_by_range_bucket(eng):
    obs = obs_on(eng)

    def prog():
        # Two waits in the same 4 KiB bucket, one in the next.
        yield from _wait(obs, eng, 0.1, file="f", start=0,
                         holder="txn:2", blocked_by=("txn:1",))
        yield from _wait(obs, eng, 0.2, file="f", start=100,
                         holder="txn:3", blocked_by=("txn:1",))
        yield from _wait(obs, eng, 0.4, file="f", start=5000,
                         holder="txn:4", blocked_by=("txn:9",))

    drive(eng, prog())
    table = contention_view(BlameTable(obs))["lock_resources"]
    assert len(table) == 2
    # Ranked by total blocked time: the 0.4 s bucket first.
    assert table[0]["range"] == [4096, 8192]
    assert table[0]["waits"] == 1
    assert table[1]["range"] == [0, 4096]
    assert table[1]["waits"] == 2
    assert table[1]["total_ns"] == 300_000_000
    assert table[1]["max_ns"] == 200_000_000
    assert table[1]["blockers"][0] == {"holder": "txn:1",
                                       "blocked_ns": 300_000_000}


def test_wait_edges_count_and_rank(eng):
    obs = obs_on(eng)

    def prog():
        yield from _wait(obs, eng, 0.1, file="f", start=0,
                         holder="txn:2", blocked_by=("txn:1",))
        yield from _wait(obs, eng, 0.2, file="f", start=0,
                         holder="txn:2", blocked_by=("txn:1", "txn:3"))

    drive(eng, prog())
    edges = contention_view(BlameTable(obs))["edges"]
    assert [(e["waiter"], e["blocker"], e["count"]) for e in edges] == [
        ("txn:2", "txn:1", 2),
        ("txn:2", "txn:3", 1),
    ]
    assert edges[0]["total_ns"] == 300_000_000


def test_disk_resources_report_queued_time(eng):
    obs = obs_on(eng)

    def prog():
        a = obs.span("disk.write", 1, "d1", 7, "io.write.page")
        yield eng.timeout(0.026)
        obs.end(a, None, 0.0)
        b = obs.span("disk.write", 1, "d1", 8, "io.write.page")
        yield eng.timeout(0.052)
        obs.end(b, None, 0.026)

    drive(eng, prog())
    table = contention_view(BlameTable(obs))["disk_resources"]
    assert len(table) == 1
    entry = table[0]
    assert entry["ios"] == 2
    assert entry["queued_ios"] == 1
    assert entry["queued_ns"] == 26_000_000


# ----------------------------------------------------------------------
# integration: real scenarios
# ----------------------------------------------------------------------

def test_commit_scenario_attributes_contention():
    cluster = run_scenario("commit")
    section = cluster.report_sections["contention"]
    # The staggered writers all queue on /db/a's first bucket.
    assert section["lock_resources_total"] >= 1
    hottest = section["lock_resources"][0]
    assert hottest["waits"] >= 4
    assert hottest["blockers"], "hot resource must name its blockers"
    # The first writer blocks everyone at least once.
    edges = section["edges"]
    assert edges and all(e["count"] >= 1 for e in edges)


def test_lock_waits_blame_matches_critpath_totals():
    """Cross-check the two views: the contention table's blocked
    nanoseconds are the same lock.wait spans the critical path blames
    (here every wait is on one path, so totals match exactly)."""
    cluster = run_scenario("commit")
    table_total = sum(e["total_ns"] for e in
                      cluster.report_sections["contention"]["lock_resources"])
    critpath_total = cluster.report_sections["critpath"]["categories"][
        "lock.wait"]
    assert table_total == critpath_total


def test_disk_queue_contention_visible_under_throughput():
    cluster = run_scenario("throughput")
    section = cluster.report_sections["contention"]
    queued = [e for e in section["disk_resources"] if e["queued_ns"] > 0]
    assert queued, "concurrent commits must queue at the log disk"


def test_render_contention_table_lists_hot_resource():
    cluster = run_scenario("commit")
    text = render_contention_table(cluster.report_sections["contention"])
    assert "top blocker" in text
    assert "waiter" in text


def test_render_contention_table_empty_section():
    assert render_contention_table({"lock_resources": [], "disk_resources": [],
                                    "edges": []}) == ""
