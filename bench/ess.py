"""Effective sample size by Geyer's initial monotone sequence estimator.

For a series of n draws with autocorrelations rho_t, the integrated
autocorrelation time is tau = 1 + 2 sum_t rho_t.  Geyer (1992) sums the
pair sums Gamma_m = rho_2m + rho_2m+1 up to the first one that is not
positive (initial positive sequence) and forces them to be non-increasing
(initial monotone sequence); then tau = -1 + 2 sum_m Gamma_m and
ESS = n / tau.
"""

from __future__ import annotations

import numpy as np


def ess(draws) -> np.ndarray:
    """ESS of each column of a (draws, series) array.

    A column that never changes carries no information about the spread of
    its target and gets ESS 0.
    """
    draws = np.asarray(draws, dtype=float)
    n = draws.shape[0]
    flat = np.ptp(draws, axis=0) == 0.0
    x = draws - draws.mean(axis=0)
    spec = np.fft.rfft(x, n=2 * n, axis=0)
    acov = np.fft.irfft(spec * np.conj(spec), axis=0)[:n] / n
    rho = acov / np.where(flat, 1.0, acov[0])
    pairs = rho[: 2 * (n // 2)].reshape(n // 2, 2, -1).sum(axis=1)
    positive = np.cumprod(pairs > 0.0, axis=0).astype(bool)
    monotone = np.minimum.accumulate(pairs, axis=0)
    tau = -1.0 + 2.0 * np.where(positive, monotone, 0.0).sum(axis=0)
    return np.where(flat, 0.0, n / np.where(flat, 1.0, tau))


def chain_ess(samples) -> float:
    """Median over the active nodes (anchor excluded) of the ESS of |q|,
    over the draws after the initial state."""
    return float(np.median(ess(np.abs(np.asarray(samples)[1:, 1:]))))
