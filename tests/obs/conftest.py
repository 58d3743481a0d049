"""Fixtures shared by the observer tests."""

import functools
from dataclasses import replace

import pytest

from repro.analysis import report

#: The scaling scenario's reference column at 64 clients: the corner,
#: config and report observer set of ``scenario_cell("scaling")``, whose
#: 1,024-client cell alone would take over a quarter of tier-1.  CI's
#: scaling-smoke job runs the full column (``report scaling``).
SCALING_C64 = replace(report.scenario_cell("scaling"), clients=64)


@pytest.fixture(scope="session")
def built_scenario():
    """``run_scenario`` by scenario name, each cell built once per
    session (the cache is keyed by the cell), for the tests that loop
    over ``SCENARIOS`` and only read the finished cluster; ``scaling``
    is :data:`SCALING_C64`."""
    built = functools.cache(report.run_scenario)
    return lambda name: built(SCALING_C64 if name == "scaling"
                              else report.scenario_cell(name))
