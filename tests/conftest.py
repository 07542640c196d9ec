"""Shared fixtures: heavy Monte Carlo studies reused across test modules."""

from __future__ import annotations

import numpy as np
import pytest

from netate import get_scenario, run_scenario

WORKERS = 2


@pytest.fixture(scope="session")
def smooth_p5_alpha05_study():
    """n=1000 study of the trimmed-kernel and linear estimators, alpha=0.05."""
    scenario = get_scenario("sec41-main", p=5, np_alpha=0.05)
    return run_scenario(
        scenario, 1000, ("np:none", "linear:none"), reps=1000, seed=9002, workers=WORKERS
    )


def rng_for(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(key)))
