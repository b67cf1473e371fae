"""ESS estimator against AR(1) series, whose integrated autocorrelation
time is known in closed form: tau = (1 + phi) / (1 - phi)."""

import numpy as np
import pytest

from ess import chain_ess, ess


def ar1(phi, n, columns, seed):
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((n, columns))
    x = np.empty((n, columns))
    x[0] = noise[0] / np.sqrt(1.0 - phi * phi)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + noise[t]
    return x


@pytest.mark.parametrize("phi", [0.0, 0.5, 0.9, -0.3])
def test_ar1_ess_matches_integrated_autocorrelation_time(phi):
    n = 20_000
    tau = (1.0 + phi) / (1.0 - phi)
    est = ess(ar1(phi, n, 8, seed=1))
    assert est.shape == (8,)
    assert np.median(est) == pytest.approx(n / tau, rel=0.1)


def test_constant_series_has_zero_ess():
    draws = np.column_stack([np.full(50, 0.25), np.arange(50.0) % 7])
    est = ess(draws)
    assert est[0] == 0.0
    assert est[1] > 0.0


def test_chain_ess_skips_anchor_and_initial_state():
    x = np.abs(ar1(0.5, 4001, 3, seed=2))
    samples = np.column_stack([np.zeros(len(x)), x])
    samples[0] = 1e6  # initial state: must not enter the estimate
    assert chain_ess(samples) == pytest.approx(np.median(ess(x[1:])))
