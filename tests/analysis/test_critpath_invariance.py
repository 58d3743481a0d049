"""Critical-path accounting is invariant to the optimization flags.

The extractor's exact-partition contract must hold for every
configuration -- lease caching on or off, commit batching on or off --
and the per-site commit.latency sketch sums must reconcile with the
2pc span windows tolerance-free in all of them.  A feature whose hooks
broke the accounting (a span left open, a latency sample measured over
a different window than its span) fails here.
"""

import pytest

from repro.analysis.report import scenario_commit
from repro.config import SystemConfig
from repro.locus.cluster import Cluster
from repro.obs.critpath import BlameTable, Category, to_ns
from tests.analysis.test_critpath import assert_partitions

FLAG_MATRIX = [
    {"lock_cache": False, "commit_batching": False},
    {"lock_cache": True, "commit_batching": False},
    {"lock_cache": False, "commit_batching": True},
    {"lock_cache": True, "commit_batching": True},
]


def _run(**flags):
    cluster = Cluster(site_ids=(1, 2, 3), config=SystemConfig(**flags))
    cluster.enable_observability()
    scenario_commit(cluster)
    return cluster


@pytest.mark.parametrize("flags", FLAG_MATRIX,
                         ids=lambda f: "cache=%(lock_cache)d,batch=%(commit_batching)d" % f)
def test_exact_partition_under_every_flag_combination(flags):
    table = BlameTable(_run(**flags).obs)
    assert len(table.attempts) == 6
    assert None not in table.commit_spans.values()
    assert_partitions(table)


@pytest.mark.parametrize("flags", FLAG_MATRIX,
                         ids=lambda f: "cache=%(lock_cache)d,batch=%(commit_batching)d" % f)
def test_commit_windows_reconcile_with_histograms(flags):
    """Per site, folding the 2pc span durations in observation order
    reproduces the commit.latency sketch's float sum exactly --
    same clock reads, same accumulation order, zero tolerance."""
    cluster = _run(**flags)
    obs = cluster.obs
    per_site = {}
    for span in obs.spans.select(name="2pc"):
        assert span.end is not None
        per_site.setdefault(span.site_id, []).append(span)
    assert per_site, "every configuration must record commits"
    for site, spans in sorted(per_site.items()):
        spans.sort(key=lambda s: (s.end, s.span_id))
        acc = 0.0
        for span in spans:
            acc += span.duration
        summary = obs.metrics.by_site()[str(site)]["commit.latency"]
        assert summary["count"] == len(spans)
        assert summary["sum"] == acc


def test_same_workload_same_outcomes_across_flags():
    """The flags change *where* time goes, never what commits: every
    configuration resolves the same six transactions."""
    statuses = {}
    for flags in FLAG_MATRIX:
        table = BlameTable(_run(**flags).obs)
        statuses[tuple(sorted(flags.items()))] = sorted(
            (root.site_id, root.status) for root in table.attempts
        )
    baseline = statuses[tuple(sorted(FLAG_MATRIX[0].items()))]
    assert all(v == baseline for v in statuses.values())


def test_batching_moves_blame_not_totals():
    """With commit batching on, the groupcommit category absorbs log
    forces -- but each transaction's commit window still partitions
    exactly (no nanoseconds appear or vanish)."""
    table = BlameTable(_run(lock_cache=False, commit_batching=True).obs)
    categories = {}
    for cats in table.blame("2pc").values():
        for cat, ns in cats.items():
            categories[cat] = categories.get(cat, 0) + ns
    assert sum(categories.values()) == sum(
        to_ns(span.end) - to_ns(span.start)
        for span in table.commit_spans.values())
    assert set(categories) <= set(Category.ALL)
