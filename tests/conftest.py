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


def whole_matrix_weights(Z, config, at=None):
    """Dense reference: K((z_j - at_i)/h) over all (m, n) pairs, one coordinate's factor at a time.

    `at` defaults to Z, which gives the (n, n) weights of the sample about
    itself.  Each factor is the second closed form of the kernel module,
    C_q times the unscaled factor (its polynomial of leading coefficient 1)
    and masked off the support, so a single scaled factor (_kernel_1d with
    scale C_q, as kernel_moment evaluates it) matches it bit for bit.  The
    symmetric pass divides the covariates by h before differencing and
    applies C_q^p to the sums, so its sums match K @ rhs to rounding, not
    bit for bit.
    """
    at = Z if at is None else at
    out = np.ones((at.shape[0], Z.shape[0]))
    for k in range(config.p):
        t = (Z[None, :, k] - at[:, k, None]) / config.h_band
        t2 = t * t
        u = 1.0 - t2
        if config.q == 2:
            factor = 0.75 * np.maximum(u, 0.0)
        elif config.q == 4:
            factor = (105.0 / 32.0) * u
            factor *= 3.0 / 7.0 - t2
            factor *= u > 0.0
        else:
            factor = (3465.0 / 256.0) * u
            factor *= (t2 - 10.0 / 11.0) * t2 + 5.0 / 33.0
            factor *= u > 0.0
        out *= factor
    return out
