"""Fixtures shared by the observer tests."""

import functools

import pytest

from repro.analysis import report


@pytest.fixture(scope="session")
def built_scenario():
    """``run_scenario(name)``, each report scenario built once per
    session.  ``scaling`` is the 1,024-client corner cell -- a third of
    tier-1 every time it is rebuilt -- and the tests that loop over
    ``SCENARIOS`` only read the finished cluster."""
    return functools.cache(report.run_scenario)
