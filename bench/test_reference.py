"""The benchmark's numpy posterior against central differences of itself."""

from types import SimpleNamespace

import numpy as np
import pytest

import reference as ref


def central_diff(f, q, step=1e-6):
    g = np.zeros_like(q)
    for i in range(1, len(q)):
        hi, lo = q.copy(), q.copy()
        hi[i] += step
        lo[i] -= step
        g[i] = (f(hi) - f(lo)) / (2.0 * step)
    return g


@pytest.fixture
def case():
    params = SimpleNamespace(D=5.0e2, I_ref=5.0e4, I_bg=1.0e3, omega=0.23,
                             tau_dead=1.0e-6, tau_exp=9.0e-5, N=3, K=4)
    rng = np.random.default_rng(3)
    m = params.N * (params.K + 1) + 1
    q = np.concatenate(([0.0], 0.4 * rng.standard_normal(m - 1)))
    counts = rng.poisson(3.0, params.N)
    return params, q, counts


def test_link_layout(case):
    params = case[0]
    tau = ref.link_tau(params)
    assert len(tau) == params.N * (params.K + 1)
    dead = np.flatnonzero(tau == params.tau_dead)
    assert dead.tolist() == [0, 5, 10]


def test_likelihood_gradient_matches_central_differences(case):
    params, q, counts = case
    g = ref.grad_v_like(q, params, counts)
    fd = central_diff(lambda x: ref.v_like(x, params, counts), q)
    assert g[0] == 0.0
    np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-6 * np.abs(g).max())


def test_prior_gradient_matches_central_differences(case):
    params, q, _ = case
    g = ref.grad_v_prior(q, params)
    fd = central_diff(lambda x: ref.v_prior(x, params), q, step=1e-7)
    np.testing.assert_allclose(g[1:], fd[1:], rtol=1e-6, atol=1e-6 * np.abs(g).max())


def test_window_signal_is_trapezoid_of_constant_intensity(case):
    params, q, _ = case
    # a flat path at x = 0 gives u_n = tau_exp (I_bg + I_ref) in every window
    counts = np.zeros(params.N)
    expected = params.N * params.tau_exp * (params.I_bg + params.I_ref)
    assert ref.v_like(np.zeros_like(q), params, counts) == pytest.approx(expected)
