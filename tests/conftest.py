"""Shared fixtures: small hand-built datasets with known ground truth.

The synthetic generators are great for integration tests, but unit tests
want datasets where every CAP is known by construction.  ``tiny_dataset``
builds one: four sensors in two spatial clusters, with sensors ``a`` and
``b`` sharing step changes (they co-evolve) and ``c``/``d`` independent.
"""

from __future__ import annotations

from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.parameters import MiningParameters
from repro.core.types import Sensor, SensorDataset


def pytest_configure(config: pytest.Config) -> None:
    """Build hypothesis' Unicode character map before any test runs.

    A checkout without a ``.hypothesis/`` directory builds it (2-8 s) on
    the first ``st.text()`` draw, and the test making that draw then fails
    the ``too_slow`` health check although its own inputs are cheap.
    """

    @given(st.text(max_size=1))
    @settings(max_examples=1, database=None, suppress_health_check=list(HealthCheck))
    def build_character_map(_text: str) -> None:
        pass

    build_character_map()


def make_timeline(n: int, start: datetime | None = None, hours: int = 1) -> list[datetime]:
    start = start or datetime(2016, 3, 1)
    return [start + timedelta(hours=hours * i) for i in range(n)]


def step_series(n: int, jump_at: list[int], jump: float = 5.0, base: float = 10.0) -> np.ndarray:
    """A flat series with +jump steps at the given indices."""
    values = np.full(n, base, dtype=np.float64)
    level = base
    for i in range(1, n):
        if i in jump_at:
            level += jump
        values[i] = level
    return values


@pytest.fixture
def tiny_dataset() -> SensorDataset:
    """Four sensors, two clusters; a+b co-evolve at steps 3, 7, 12.

    Cluster 1 (|a−b| ≈ 110 m): ``a`` (temperature), ``b`` (traffic).
    Cluster 2 (~11 km away):   ``c`` (temperature), ``d`` (humidity),
    co-evolving at steps 5 and 9 only.
    """
    n = 16
    timeline = make_timeline(n)
    sensors = [
        Sensor("a", "temperature", 43.4620, -3.8020),
        Sensor("b", "traffic_volume", 43.4630, -3.8020),
        Sensor("c", "temperature", 43.5600, -3.8020),
        Sensor("d", "humidity", 43.5610, -3.8020),
    ]
    measurements = {
        "a": step_series(n, [3, 7, 12]),
        "b": step_series(n, [3, 7, 12], base=100.0),
        "c": step_series(n, [5, 9], base=12.0),
        "d": step_series(n, [5, 9, 14], base=60.0),
    }
    return SensorDataset("tiny", timeline, sensors, measurements)


@pytest.fixture
def tiny_params() -> MiningParameters:
    """Parameters under which tiny_dataset's CAPs are exactly {a,b} and {c,d}."""
    return MiningParameters(
        evolving_rate=1.0,
        distance_threshold=2.0,
        max_attributes=3,
        min_support=2,
    )
