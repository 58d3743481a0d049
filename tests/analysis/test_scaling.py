"""The scaling sweep: grid runner, report section, and the differential
proof that the profile-guided hot paths are virtual-time neutral.

Three layers of pinning:

* **Zero perturbation + pinned fingerprint** -- the smallest grid cell
  runs bare vs instrumented-with-strict-monitors to identical virtual
  stats, and those stats match the committed ``BENCH_scaling.json``
  numbers float for float.

* **Stock-implementation differential** -- every hot-path rewrite the
  scaling profile motivated (the indexed conflict check, remembered
  wait-for blockers, range-overlap early exit, by-tid log reads and
  discards, the tuple transaction id, page-window probing) is
  reverted to its stock form via monkeypatching, and a contended cell
  must produce the *exact* same statistics either way.  This is the
  proof the wall-clock work changed no simulation-visible behaviour.

* **Section/schema shape** -- the ``scaling`` report section and the
  knee-point diff gates over it.
"""

import copy
from dataclasses import dataclass, replace

import pytest

import repro.core.ids
from repro.analysis.cell import run, run_grid
from repro.analysis.diff import diff_reports, render_diff
from repro.analysis.scaling import (main, run_scaling_cell, scaling_cells,
                                    scaling_report, scaling_section)
from repro.core.ids import TransactionId, TransactionIdGenerator
from repro.locking.manager import LockManager
from repro.locking.modes import compatible
from repro.locking.table import LockTable
from repro.obs import validate_report
from repro.obs.schema import SECTIONS
from repro.rangeset import RangeSet
from repro.sim import Engine
from repro.storage.logfile import LogFile
from repro.storage.shadow import OpenFileState

#: The smallest grid cell -- cheap enough to run several times per test
#: session -- and a skewed sibling that actually exercises contention,
#: retries and the deadlock detector.
SMALLEST_CELL, CONTENDED_CELL = scaling_cells(sites=(1,), clients=(64,),
                                              thetas=(0.0, 0.9))

#: Virtual stats of SMALLEST_CELL, pinned to the committed
#: ``BENCH_scaling.json``.  Every number is virtual-time-derived, so
#: any drift here means the simulation itself moved -- a regression of
#: the reproducibility contract, not noise.
SMALLEST_CELL_FINGERPRINT = {
    "committed": 128,
    "aborted": 0,
    "retries": 0,
    "abort_rate": 0.0,
    "virtual_seconds": 16.085355104781904,
    "commits_per_sec": 7.957548911179944,
    "p50_ms": 4038.8181669744768,
    "p95_ms": 9747.70311494184,
    "p99_ms": 10269.811335398821,
}

_STAT_KEYS = tuple(SMALLEST_CELL_FINGERPRINT)


def _bare_cell_stats(cell):
    """The cell's virtual stats with observability entirely off: the
    same cell, so the same workload by construction."""
    return run(replace(cell, observed=False)).result.stats()


# ----------------------------------------------------------------------
# zero perturbation + pinned fingerprint (smallest grid cell)
# ----------------------------------------------------------------------

def test_smallest_cell_matches_pinned_fingerprint_under_strict_monitors():
    row = run_scaling_cell(SMALLEST_CELL)
    assert row["monitors_total_violations"] == 0
    for key, expected in SMALLEST_CELL_FINGERPRINT.items():
        assert row[key] == expected, key


def test_monitors_do_not_perturb_the_smallest_cell():
    """Strict monitors + metrics on vs observability off: identical
    virtual stats, so the scaling numbers are workload truth, not an
    artifact of being watched."""
    bare = _bare_cell_stats(SMALLEST_CELL)
    instrumented = run_scaling_cell(SMALLEST_CELL)
    for key in _STAT_KEYS:
        assert instrumented[key] == bare[key], key


# ----------------------------------------------------------------------
# stock-implementation differential: the hot paths are vt-neutral
# ----------------------------------------------------------------------

def _stock_conflicts(self, holder, mode, start, end):
    """The flat conflict scan: every record of the file (the table's
    ``_records`` dict, which the indexes only shadow), generic mode
    compatibility, holder equality before overlap."""
    blockers = set()
    for rec in self.records():
        if rec.holder == holder:
            continue
        if compatible(mode, rec.mode):
            continue
        if rec.ranges.overlaps(start, end):
            blockers.add(rec.holder)
    return sorted(blockers)


def _stock_wait_edges(self):
    """The rescanning wait-for export: one conflict check per queued
    request, remembered blockers ignored."""
    edges = set()
    for file_id, queue in self._queues.items():
        for waiter in queue:
            for blocker in self.table(file_id).conflicts(
                    waiter.holder, waiter.mode, waiter.start, waiter.end):
                edges.add((waiter.holder, blocker))
    return sorted(edges)


def _stock_overlaps(self, start, end):
    """The pre-tranche overlap test: full validation, no early exit."""
    if start < 0 or end < start:
        raise ValueError("bad range [%r, %r)" % (start, end))
    return any(s < end and start < e for s, e in self._runs)


def _stock_dirty_owners(self, start, end):
    """The pre-tranche scan over *every* dirty page, no window filter."""
    out = {}
    if end <= start:
        return out
    psize = self._cost.page_size
    window = RangeSet.single(start, end)
    for page_index, ps in self._pages.items():
        base = page_index * psize
        for owner, ranges in ps.owners.items():
            hit = ranges.shift(base).intersection(window)
            if hit:
                prior = out.get(owner)
                out[owner] = hit if prior is None else prior.union(hit)
    return out


def _stock_records_of(self, tid):
    """The pre-index reader: filter a copy of the whole log."""
    return tuple(e for e in self.scan() if e.get("tid") == tid)


def _stock_discard(self, tid, type=None):
    """The pre-index discard: a predicate over the whole log."""
    self.remove_where(
        lambda e: e.get("tid") == tid and type in (None, e.get("type")))


@dataclass(frozen=True, order=True)
class StockTransactionId:
    """The id as a plain value object: generated comparators that build
    two tuples per call, and no identity across deep copies."""

    timestamp: float
    site_id: int
    sequence: int

    def __repr__(self):
        return "tid(%g.%s.%s)" % (self.timestamp, self.site_id, self.sequence)


def test_hot_paths_are_virtual_time_identical_to_stock(monkeypatch):
    """Revert every profile-guided rewrite at once and re-run a
    contended cell: committed/aborted/retries, virtual makespan and
    every latency quantile must match exactly."""
    fast = run_scaling_cell(CONTENDED_CELL)

    monkeypatch.setattr(LockTable, "conflicts", _stock_conflicts)
    monkeypatch.setattr(LockManager, "wait_edges", _stock_wait_edges)
    monkeypatch.setattr(RangeSet, "overlaps", _stock_overlaps)
    # Per-tid log reads and discards fall back to filters over the
    # whole log (whose reader copies every record: the log holds its
    # records serialised, so there is no copy-free scan to revert).
    monkeypatch.setattr(LogFile, "records_of", _stock_records_of)
    monkeypatch.setattr(LogFile, "discard", _stock_discard)
    monkeypatch.setattr(OpenFileState, "dirty_owners", _stock_dirty_owners)
    # Transaction ids are minted as plain dataclass objects: Python-
    # level comparators, and RPC payload copies become distinct-but-
    # equal objects.
    monkeypatch.setattr(repro.core.ids, "TransactionId", StockTransactionId)

    tid = TransactionIdGenerator(Engine(), site_id=2).next()
    clone = copy.deepcopy(tid)
    assert type(tid) is StockTransactionId  # patch took effect
    assert clone is not tid and clone == tid

    stock = run_scaling_cell(CONTENDED_CELL)
    for key in _STAT_KEYS:
        assert stock[key] == fast[key], key
    assert stock["monitors_total_violations"] == 0
    assert fast["retries"] > 0  # the cell really is contended


def test_transaction_id_comparisons_match_tuple_semantics():
    """The id compares, sorts and hashes as the plain tuple of its
    fields on every pair of a mixed sample."""
    sample = [
        TransactionId(timestamp=t, site_id=s, sequence=q)
        for t in (0.0, 1.25, 1.25, 3.0)
        for s in (1, 2)
        for q in (1, 5)
    ]
    for a in sample:
        for b in sample:
            ta = (a.timestamp, a.site_id, a.sequence)
            tb = (b.timestamp, b.site_id, b.sequence)
            assert (a == b) is (ta == tb)
            assert (a != b) is (ta != tb)
            assert (a < b) is (ta < tb)
            assert (a <= b) is (ta <= tb)
            assert (a > b) is (ta > tb)
            assert (a >= b) is (ta >= tb)
            if a == b:
                assert hash(a) == hash(b)
    assert sorted(sample) == sorted(sample, key=lambda i: (
        i.timestamp, i.site_id, i.sequence))


# ----------------------------------------------------------------------
# grid runner + report section
# ----------------------------------------------------------------------

def test_scaling_cells_is_the_ordered_cross_product():
    cells = scaling_cells(sites=(1, 3), clients=(8, 16), thetas=(0.0, 0.9))
    assert len(cells) == 8
    assert [(c.sites, c.clients, c.theta) for c in (cells[0], cells[-1])] == [
        (1, 8, 0.0), (3, 16, 0.9)]


def test_grid_runner_section_and_report_validate():
    sites, clients, thetas = (1,), (8, 16), (0.9,)
    cells = scaling_cells(sites=sites, clients=clients, thetas=thetas)
    results = run_grid(run_scaling_cell, cells, workers=1)
    section = scaling_section(results, sites=sites, clients=clients,
                              thetas=thetas)
    assert [c["clients"] for c in section["cells"]] == [8, 16]
    ref = section["reference"]
    assert ref["sites"] == 1 and ref["theta"] == 0.9
    assert sorted(ref["commits_per_sec"]) == ["c16", "c8"]
    doc = scaling_report(section)
    validate_report(doc)
    assert doc["schema"] == "repro.bench_report/10"
    table = SECTIONS["scaling"].render(section)
    assert "reference" in table and "cmt/sec" in table


@pytest.mark.parametrize("axis", ["--sites", "--clients", "--thetas"])
def test_cli_rejects_an_empty_axis(axis, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([axis, "", "--workers", "1"])
    assert exit_info.value.code == 2
    assert axis in capsys.readouterr().err


# ----------------------------------------------------------------------
# knee-point diff gates
# ----------------------------------------------------------------------

def _synthetic_scaling_doc(cps_c1024):
    rows = []
    for c in (64, 256, 1024):
        rows.append({
            "sites": 3, "clients": c, "theta": 0.9,
            "committed": 2 * c, "aborted": 0, "retries": 0,
            "abort_rate": 0.0, "virtual_seconds": 100.0,
            "commits_per_sec": cps_c1024 if c == 1024 else float(c),
            "p50_ms": 10.0, "p95_ms": 20.0, "p99_ms": 30.0,
            "monitors_total_violations": 0,
        })
    section = scaling_section(rows, sites=(3,), clients=(64, 256, 1024),
                              thetas=(0.9,))
    doc = scaling_report(section)
    validate_report(doc)
    return doc


def test_knee_point_gate_trips_on_reference_curve_regression():
    old = _synthetic_scaling_doc(cps_c1024=10.0)
    held = _synthetic_scaling_doc(cps_c1024=9.5)    # above the floor
    broken = _synthetic_scaling_doc(cps_c1024=8.0)  # below it
    path = "scaling.reference.commits_per_sec.c1024"
    gate = "%s>=9.0" % path

    ok = diff_reports(old, held, checks=[gate])
    assert ok["ok"] and ok["checks"][0]["value"] == 9.5

    bad = diff_reports(old, broken, checks=[gate])
    assert not bad["ok"] and bad["checks"][0]["value"] == 8.0
    # The digest names the regressed point by the path the gate reads.
    assert {"path": path, "old": 10.0, "new": 8.0, "delta": -2.0,
            "rel": pytest.approx(-0.2)} in bad["changes"]
    assert path in render_diff(bad)
    # The cells pair by grid point; the digest names them by index.
    assert "scaling.cells.2.commits_per_sec" in [
        m["path"] for m in bad["changes"]]
