"""Shared fixtures, test tiering, and hypothesis settings for the suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings


def pytest_addoption(parser):
    parser.addoption(
        "--run-slow",
        action="store_true",
        default=False,
        help="run tests marked slow (chaos suite, deep fuzz, full "
        "conformance matrix); RUN_SLOW=1 does the same",
    )


def _slow_enabled(config) -> bool:
    return bool(config.getoption("--run-slow") or os.environ.get("RUN_SLOW"))


def pytest_collection_modifyitems(config, items):
    """Tier-1 (plain ``pytest``) skips @slow; CI tier-2 jobs opt back in."""
    if _slow_enabled(config):
        return
    skip = pytest.mark.skip(reason="slow tier: set RUN_SLOW=1 or --run-slow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)

# A single moderate profile: property tests should stay fast but meaningful.
settings.register_profile(
    "repro",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture(autouse=True)
def _telemetry_disabled_after_test():
    """Turn the default telemetry recorder off after every test.

    Tests that enable it to read counters must not leave it recording for
    later tests in the same process: the zero-allocation steady-state test
    asserts it is off.
    """
    yield
    from repro import telemetry

    telemetry.disable()


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for reproducible tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def smooth_2d(rng) -> np.ndarray:
    """A smooth 2-D field (sum of low-frequency sinusoids plus mild noise)."""
    x = np.linspace(0, 4 * np.pi, 96)
    y = np.linspace(0, 3 * np.pi, 128)
    field = np.sin(x)[:, None] * np.cos(y)[None, :] + 0.3 * np.sin(2 * x)[:, None]
    field = field + 0.01 * rng.standard_normal((96, 128))
    return field.astype(np.float32)


@pytest.fixture
def rough_1d(rng) -> np.ndarray:
    """A rough 1-D field (random walk with heavy-tailed steps), HACC-like."""
    steps = rng.standard_t(df=3, size=20_000)
    return np.cumsum(steps).astype(np.float32)


@pytest.fixture
def sparse_3d(rng) -> np.ndarray:
    """A mostly-zero smooth 3-D field, RTM-like."""
    field = np.zeros((64, 64, 64), dtype=np.float32)
    z, y, x = np.mgrid[0:64, 0:64, 0:64]
    blob = np.exp(-(((z - 32) ** 2) / 30 + ((y - 32) ** 2) / 40 + ((x - 32) ** 2) / 20))
    field += (blob * 5).astype(np.float32)
    field[field < 0.05] = 0.0
    return field
