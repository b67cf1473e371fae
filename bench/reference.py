"""Numpy reference of the trajectory posterior, written from the model's
formulas rather than from the package, for the benchmark's output checks.

Mesh: M = N(K+1) + 1 flat nodes.  Node 0 is the pinned anchor; window n
(0-based here) holds nodes 1 + n(K+1) .. (n+1)(K+1).  Each window is reached
from the previous node by one dead-time link of length tau_dead, and its K+1
nodes are joined by K links of length tau_sub = tau_exp / K.

    I(x)    = I_bg + I_ref exp(-x^2 / (2 omega))
    u_n     = tau_sub [I(x_0)/2 + I(x_1) + ... + I(x_{K-1}) + I(x_K)/2]
    V_like  = sum_n (u_n - w_n log u_n)
    V_prior = sum_links (q_right - q_left)^2 / (4 D tau_link)

Parameters are read by attribute name (D, I_ref, I_bg, omega, tau_dead,
tau_exp, N, K) from any object that has them.
"""

from __future__ import annotations

import numpy as np


def link_tau(params) -> np.ndarray:
    """The M-1 link durations in mesh order."""
    tau = np.full((params.N, params.K + 1), params.tau_exp / params.K)
    tau[:, 0] = params.tau_dead
    return tau.ravel()


def _windows(q, params):
    """Window node positions (N, K+1), trapezoid weights and profile."""
    x = np.asarray(q, dtype=float)[1:].reshape(params.N, params.K + 1)
    weight = np.full(params.K + 1, params.tau_exp / params.K)
    weight[[0, -1]] *= 0.5
    profile = np.exp(-x * x / (2.0 * params.omega))
    return x, weight, profile


def v_like(q, params, counts) -> float:
    _, weight, profile = _windows(q, params)
    u = (params.I_bg + params.I_ref * profile) @ weight
    return float(np.sum(u - np.asarray(counts, dtype=float) * np.log(u)))


def grad_v_like(q, params, counts) -> np.ndarray:
    x, weight, profile = _windows(q, params)
    u = (params.I_bg + params.I_ref * profile) @ weight
    dv_du = 1.0 - np.asarray(counts, dtype=float) / u
    du_dx = weight * params.I_ref * profile * (-x / params.omega)
    g = np.zeros(len(q))
    g[1:] = (dv_du[:, None] * du_dx).ravel()
    return g


def v_prior(q, params) -> float:
    d = np.diff(np.asarray(q, dtype=float))
    return float(np.sum(d * d / (4.0 * params.D * link_tau(params))))


def grad_v_prior(q, params) -> np.ndarray:
    flux = np.diff(np.asarray(q, dtype=float)) / (2.0 * params.D * link_tau(params))
    g = np.zeros(len(q))
    g[:-1] -= flux
    g[1:] += flux
    return g


def prior_subsystem_energy(q, p, params, theta, mass) -> float:
    """V_prior + theta p.p / 2m, the energy the implicit midpoint step keeps."""
    p = np.asarray(p, dtype=float)
    return v_prior(q, params) + theta * float(p @ p) / (2.0 * mass)
