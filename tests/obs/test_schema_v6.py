"""Schema v6: the matrix section validates, its invariants are
enforced, the empty-``sites`` grid allowance works, and older documents
(including v5 with telemetry sections) still pass."""

import pytest

from repro.obs import validate_report
from repro.obs.schema import REQUIRED_METRICS, SchemaError


def summary(value=0.5):
    return {
        "count": 1, "sum": value, "min": value, "max": value,
        "mean": value, "p50": value, "p95": value, "p99": value,
        "buckets": {"bounds": [], "counts": [1]},
    }


def minimal(version=6, sites=True):
    doc = {
        "schema": "repro.bench_report/%d" % version,
        "generator": "repro test",
        "scenario": "synthetic",
        "virtual_time": 1.0,
        "sites": ({"1": {name: summary() for name in REQUIRED_METRICS}}
                  if sites else {}),
        "spans": {"recorded": 0, "dropped": 0, "traces": 0},
    }
    if version >= 2:
        doc["counters"] = {}
    return doc


def good_matrix():
    return {
        "grid": {"scenario": ["commit"], "lock_cache": [False, True],
                 "commit_batching": [False, True]},
        "cells": [
            {"scenario": "commit", "lock_cache": lc, "commit_batching": cb,
             "virtual_time": 3.5, "monitors_total_violations": 0,
             "spans_recorded": 10}
            for lc in (False, True) for cb in (False, True)
        ],
    }


# ----------------------------------------------------------------------
# acceptance
# ----------------------------------------------------------------------

def test_v6_with_matrix_validates():
    doc = minimal()
    doc["matrix"] = good_matrix()
    validate_report(doc)


def test_v6_sections_rejected_on_v5():
    doc = minimal(5)
    doc["matrix"] = good_matrix()
    with pytest.raises(SchemaError, match="matrix section requires"):
        validate_report(doc)


def test_empty_sites_allowance_is_v6_only():
    """Empty ``sites`` skips REQUIRED_METRICS on v6 -- and only v6: a
    v5 grid document stays invalid."""
    validate_report(minimal(sites=False))
    with pytest.raises(SchemaError, match="required metric"):
        validate_report(minimal(5, sites=False))


def test_v6_with_sites_still_requires_the_metrics():
    doc = minimal()
    del doc["sites"]["1"]["lock.wait"]
    with pytest.raises(SchemaError, match="required metric"):
        validate_report(doc)


# ----------------------------------------------------------------------
# matrix invariants
# ----------------------------------------------------------------------

def test_matrix_cell_count_must_match_the_grid():
    doc = minimal()
    section = good_matrix()
    section["cells"] = section["cells"][:-1]
    doc["matrix"] = section
    with pytest.raises(SchemaError, match="cells for a"):
        validate_report(doc)


def test_matrix_cells_need_their_axes_and_verdicts():
    for key, message in (
        ("scenario", "scenario"),
        ("lock_cache", "lock_cache"),
        ("virtual_time", "virtual_time"),
        ("monitors_total_violations", "monitors_total_violations"),
    ):
        doc = minimal()
        section = good_matrix()
        del section["cells"][0][key]
        doc["matrix"] = section
        with pytest.raises(SchemaError, match=message):
            validate_report(doc)

