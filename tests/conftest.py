"""Shared fixtures.

Heavy artifacts (market data sets, traces, baseline simulations) are
session-scoped: they are deterministic, read-only, and expensive, so
every test file shares one instance.
"""

from __future__ import annotations

from datetime import datetime

import pytest

from repro import artifacts, kernels
from repro.markets import MarketConfig, generate_market
from repro.routing import BaselineProximityRouter, RoutingProblem
from repro.sim import simulate
from repro.traffic import TraceConfig, akamai_like_deployment, make_trace


@pytest.fixture(autouse=True)
def _no_ambient_artifact_store(monkeypatch):
    """Keep tests hermetic: no artifact store unless a test opts in.

    Tests that exercise persistence call ``artifacts.configure`` (or
    set ``REPRO_ARTIFACT_DIR``) themselves, against a tmp path.
    """
    monkeypatch.delenv(artifacts.ENV_STORE_DIR, raising=False)
    artifacts.reset()
    yield
    artifacts.reset()


@pytest.fixture
def numpy_kernel(monkeypatch):
    """Run one test on the numpy kernels, as if the native one never loaded."""
    monkeypatch.setattr(kernels, "_loaded", (None, "forced by the test suite"))


@pytest.fixture(scope="session")
def small_dataset():
    """Six months of prices — enough structure for behavioural tests."""
    return generate_market(MarketConfig(start=datetime(2008, 10, 1), months=6, seed=7))


@pytest.fixture(scope="session")
def full_dataset():
    """The paper-shaped 39-month data set for calibration tests."""
    return generate_market(MarketConfig(seed=2009))


@pytest.fixture(scope="session")
def trace24():
    """A 24-day five-minute trace inside the small dataset's calendar."""
    return make_trace(TraceConfig(start=datetime(2008, 12, 16), seed=7))


@pytest.fixture(scope="session")
def short_trace():
    """A two-day trace for fast engine tests."""
    return make_trace(TraceConfig(start=datetime(2008, 12, 16), n_steps=2 * 288, seed=7))


@pytest.fixture(scope="session")
def problem():
    return RoutingProblem(akamai_like_deployment())


@pytest.fixture(scope="session")
def baseline24(trace24, small_dataset, problem):
    return simulate(trace24, small_dataset, problem, BaselineProximityRouter(problem))
