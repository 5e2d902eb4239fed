"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.geometry.deployment import grid_deployment, uniform_disk
from repro.geometry.points import PointSet
from repro.sinr.params import SINRParameters

# Property tests replay the same examples on every run; CI adds a pass
# with a larger budget (`pytest --hypothesis-profile=ci`) for the tests
# that leave max_examples to the profile.
settings.register_profile("default", derandomize=True, deadline=None)
settings.register_profile("ci", settings.get_profile("default"), max_examples=1000)
settings.load_profile("default")


@pytest.fixture
def params() -> SINRParameters:
    """Default SINR parameters used across tests.

    R = (1 / (1.5e-4))^(1/3) ≈ 18.8, R_{1-ε} ≈ 16.9.
    """
    return SINRParameters(
        power=1.0, alpha=3.0, beta=1.5, noise=1.0e-4, epsilon=0.1
    )


@pytest.fixture
def two_node_points() -> PointSet:
    """Two nodes five units apart (well inside the strong range)."""
    return PointSet(np.array([[0.0, 0.0], [5.0, 0.0]]))


@pytest.fixture
def small_disk() -> PointSet:
    """A 15-node random disk deployment (dense, single-hop-ish)."""
    return uniform_disk(15, radius=8.0, seed=42)


@pytest.fixture
def medium_disk() -> PointSet:
    """A 30-node random disk deployment."""
    return uniform_disk(30, radius=12.0, seed=7)


@pytest.fixture
def grid_3x3() -> PointSet:
    """3x3 grid with spacing 4."""
    return grid_deployment(3, 3, spacing=4.0)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator for test randomness."""
    return np.random.default_rng(1234)
