import math

import numpy as np
import pytest

from _oracles import node_times, refined_window_integral
from fcshmc.model import (
    ExperimentParams,
    intensity,
    psf,
    sample_prior_trajectory,
    signal,
    simulate,
    time_mesh,
)
from fcshmc.rng import RandomStream


DEFAULT = ExperimentParams()


# -- parameters and mesh -----------------------------------------------------


def test_default_values_match_benchmark_table():
    p = DEFAULT
    assert (p.D, p.I_ref, p.I_bg, p.omega) == (500.0, 5.0e4, 1.0e3, 0.23)
    assert (p.tau_dead, p.tau_exp, p.N, p.K) == (1.0e-6, 9.0e-5, 20, 20)
    assert p.tau_sub == pytest.approx(4.5e-6, rel=1e-15)
    assert p.node_count == 20 * 21 + 1 == 421


@pytest.mark.parametrize("field,value", [
    ("D", -1.0), ("I_ref", 0.0), ("I_bg", -5.0), ("omega", 0.0),
    ("tau_dead", 0.0), ("tau_exp", -1e-5), ("N", 0), ("K", 0),
])
def test_invalid_params_rejected(field, value):
    with pytest.raises(ValueError):
        ExperimentParams(**{field: value})


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["D", "I_ref", "I_bg", "omega", "tau_dead", "tau_exp"])
def test_non_finite_params_rejected(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        ExperimentParams(**{field: value})


def test_zero_diffusion_is_allowed():
    assert ExperimentParams(D=0.0).D == 0.0


def test_time_mesh_spacing_pattern():
    p = ExperimentParams(N=3, K=4)
    mesh = time_mesh(p)
    assert len(mesh.times) == p.node_count
    assert np.all(np.diff(mesh.times) > 0)
    gaps = np.diff(mesh.times).reshape(p.N, p.K + 1)
    assert np.allclose(gaps[:, 0], p.tau_dead)
    assert np.allclose(gaps[:, 1:], p.tau_sub)
    assert np.allclose(mesh.times, node_times(p))


# -- emission profile --------------------------------------------------------


def test_psf_peak_is_one():
    assert psf(0.0, 0.23) == 1.0
    assert psf(0.0, 5.0) == 1.0


def test_psf_quarter_micron_value():
    # exponent is x^2 / (2 omega) with omega entering linearly
    assert psf(0.23, 0.23) == pytest.approx(math.exp(-0.115), rel=1e-15)
    assert psf(0.23, 0.23) == pytest.approx(0.8913661439068313, rel=1e-12)


def test_psf_even():
    assert psf(-0.5, 0.23) == psf(0.5, 0.23)


def test_intensity_center_and_tails():
    assert intensity(0.0, DEFAULT) == 51_000.0
    assert intensity(100.0, DEFAULT) == pytest.approx(1000.0, rel=1e-12)
    expect = 1000.0 + 50_000.0 * math.exp(-0.23 * 0.23 / (2 * 0.23))
    assert intensity(0.23, DEFAULT) == pytest.approx(expect, rel=1e-14)


# -- window signal -----------------------------------------------------------


def test_signal_constant_center_trajectory():
    # trapezoid is exact on constants: u_n = tau_exp * I(0) = 4.59
    for k in (1, 5, 20):
        p = ExperimentParams(K=k)
        u = signal(np.zeros(p.node_count), p)
        assert u.shape == (p.N,)
        assert u == pytest.approx(np.full(p.N, 4.59), rel=1e-12)


def test_signal_background_floor():
    p = DEFAULT
    u = signal(np.full(p.node_count, 50.0), p)
    assert u == pytest.approx(np.full(p.N, 9e-5 * 1000.0), rel=1e-12)


def test_signal_hand_trapezoid():
    p = ExperimentParams(N=1, K=2)
    q = np.array([0.0, 0.0, 0.23, 0.0])
    tau_sub = p.tau_exp / 2
    expect = tau_sub * (intensity(0.0, p) + intensity(0.23, p))
    assert signal(q, p)[0] == pytest.approx(expect, rel=1e-14)


def test_signal_shape_mismatch():
    with pytest.raises(ValueError):
        signal(np.zeros(10), DEFAULT)


def test_signal_even_in_trajectory():
    p = ExperimentParams(N=2, K=3)
    q = RandomStream(0, 0).standard_normals(p.node_count)
    assert np.array_equal(signal(q, p), signal(-q, p))


def test_signal_positive_floor_any_trajectory():
    p = ExperimentParams(N=4, K=5)
    q = 10.0 * RandomStream(1, 0).standard_normals(p.node_count)
    assert np.all(signal(q, p) >= p.tau_exp * p.I_bg * (1 - 1e-12))


def test_signal_quadrature_refines_at_second_order():
    # smooth deterministic path; halving tau_sub divides the error by ~4
    base = dict(D=500.0, N=2, tau_dead=1e-6, tau_exp=9e-5)

    def path(t):
        return 0.3 * np.sin(2 * np.pi * 3000.0 * t) + 0.05

    errs = {}
    for k in (8, 16):
        p = ExperimentParams(K=k, **base)
        q = path(node_times(p))
        q[0] = 0.0
        u = signal(q, p)
        ref = [
            refined_window_integral(
                path,
                node_times(p)[1 + n * (k + 1)],
                node_times(p)[(n + 1) * (k + 1)],
                p,
            )
            for n in range(p.N)
        ]
        errs[k] = np.max(np.abs(u - np.array(ref)))
    assert errs[16] < errs[8]
    assert 3.0 < errs[8] / errs[16] < 5.5


# -- prior trajectory --------------------------------------------------------


def test_prior_trajectory_pinned_at_zero():
    q = sample_prior_trajectory(RandomStream(0, 1), DEFAULT)
    assert q[0] == 0.0
    assert q.shape == (DEFAULT.node_count,)
    assert np.all(np.isfinite(q))


def test_prior_trajectory_zero_diffusion_is_frozen():
    q = sample_prior_trajectory(RandomStream(0, 1), ExperimentParams(D=0.0))
    assert np.all(q == 0.0)


def test_prior_increment_variance():
    # one long walk gives 1e6 submesh increments in a single vector draw
    p = ExperimentParams(N=250_000, K=4)
    q = sample_prior_trajectory(RandomStream(2, 1), p)
    inc = np.diff(q)
    submesh = np.arange(inc.size) % (p.K + 1) != 0
    assert submesh.sum() == 1_000_000
    var = inc[submesh].var()
    assert abs(var / (2 * p.D * p.tau_sub) - 1.0) < 0.02


def test_prior_covariance_matches_pinned_walk():
    p = ExperimentParams(N=2, K=3, D=500.0)
    n_samples = 100_000
    paths = np.empty((n_samples, p.node_count))
    for i in range(n_samples):
        paths[i] = sample_prior_trajectory(RandomStream(1234, i), p)
    t = node_times(p)
    cov = np.cov(paths[:, 1:], rowvar=False)
    expect = 2 * p.D * np.minimum.outer(t[1:], t[1:])
    # all node variances, plus covariances between nodes of comparable
    # elapsed time (cross terms with the first post-gap node, whose elapsed
    # time is 30x smaller than everything else, need far more samples)
    assert np.max(np.abs(np.diag(cov) / np.diag(expect) - 1.0)) < 0.03
    assert np.max(np.abs(cov[1:, 1:] / expect[1:, 1:] - 1.0)) < 0.03


# -- ancestral simulation ----------------------------------------------------


def test_simulate_shapes():
    p = ExperimentParams(N=5, K=4)
    sim = simulate(RandomStream(0, 1), p)
    assert sim.trajectory.shape == (p.node_count,)
    assert sim.signal.shape == (p.N,)
    assert sim.counts.shape == (p.N,)
    assert sim.counts.dtype.kind in "iu"
    assert np.all(sim.counts >= 0)


def test_simulate_zero_diffusion_composition():
    p = ExperimentParams(D=0.0, N=50)
    sim = simulate(RandomStream(3, 1), p)
    assert np.all(sim.trajectory == 0.0)
    assert sim.signal == pytest.approx(np.full(p.N, 4.59), rel=1e-12)
    assert abs(sim.counts.mean() - 4.59) < 1.0  # Poisson(4.59), 50 windows


def test_simulate_mean_counts_between_floor_and_center():
    p = ExperimentParams(N=200)
    sim = simulate(RandomStream(4, 1), p)
    assert 0.09 < sim.counts.mean() < 4.59


def test_simulate_deterministic():
    a = simulate(RandomStream(11, 1), DEFAULT)
    b = simulate(RandomStream(11, 1), DEFAULT)
    assert np.array_equal(a.trajectory, b.trajectory)
    assert np.array_equal(a.counts, b.counts)
