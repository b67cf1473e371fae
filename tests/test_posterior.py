import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import _oracles
from _oracles import central_diff_grad, dense_neumann_block, dense_two_scale_laplacian
from fcshmc import posterior
from fcshmc.harness import apply_overrides, default_config, exp_stability
from fcshmc.model import ExperimentParams, signal, simulate, time_mesh
from fcshmc.posterior import (
    HmcParams,
    PosteriorProblem,
    Scheme,
    build_laplacian,
    cfl_certificate,
    exposure_block_eigenvalues,
    exposure_coupling,
    grad_v,
    grad_v_like,
    grad_v_prior,
    hamiltonian,
    hamiltonian_like,
    hamiltonian_prior,
    max_eigenvalue_bound,
    v_like,
    v_prior,
    verlet_step_bound,
)
from fcshmc.rng import RandomStream


def random_problem(seed, n, k, **overrides):
    p = ExperimentParams(N=n, K=k, **overrides)
    sim = simulate(RandomStream(seed, 1), p)
    return PosteriorProblem(p, counts=sim.counts), sim


# -- sampler configuration ---------------------------------------------------


def test_hmc_params_validation():
    HmcParams(theta=0.0)
    HmcParams(theta=1.0)
    HmcParams(L=np.int64(3), updates=np.int64(0), seed=np.int64(3))
    for bad in (dict(theta=-0.1), dict(theta=1.1), dict(h=0.0), dict(L=0),
                dict(updates=-1), dict(L=2.5), dict(updates=2.5),
                dict(seed=2.5), dict(seed=-1)):
        with pytest.raises(ValueError):
            HmcParams(**bad)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["h"])
def test_hmc_params_reject_non_finite(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        HmcParams(**{field: value})


def test_scheme_accepts_plain_strings():
    assert HmcParams(scheme="svex").scheme is Scheme.SVEX
    assert HmcParams(scheme="imex").scheme is Scheme.IMEX
    with pytest.raises(ValueError):
        HmcParams(scheme="rk4")


def test_problem_validates_counts_and_diffusion():
    p = ExperimentParams(N=3, K=2)
    PosteriorProblem(p, counts=np.array([0, 1, 2]))
    with pytest.raises(ValueError):
        PosteriorProblem(p, counts=np.array([1, 2]))  # wrong length
    with pytest.raises(ValueError):
        PosteriorProblem(p, counts=np.array([1, -1, 0]))
    with pytest.raises(ValueError):
        PosteriorProblem(p, counts=np.array([0.5, 1.0, 2.0]))
    for bad in (math.inf, math.nan, 1e20):
        # astype(np.int64) would store inf and 1e20 as -2**63
        with pytest.raises(ValueError, match="counts must be nonnegative integers"):
            PosteriorProblem(p, counts=np.array([bad, 3.0, 0.0]))
    with pytest.raises(ValueError):
        PosteriorProblem(ExperimentParams(D=0.0))


def test_problem_link_lists_share_one_float_per_value():
    # the gradient loop's coupling list: its float64 source bit for bit, one
    # float object per distinct value; the link arrays of the numpy kernels:
    # their sources bit for bit, read-only
    p = ExperimentParams(N=30, K=5)
    problem = PosteriorProblem(p)
    link = time_mesh(p).link_tau
    off = build_laplacian(p).off
    assert np.array(problem._s).tobytes() == off.tobytes()
    assert len({id(v) for v in problem._s}) == len(np.unique(off)) == 2
    # the active operator: build_laplacian's bands without the anchor, bit for bit
    active, lap = problem.active_laplacian, build_laplacian(p)
    assert [active.off.tobytes(), active.diag.tobytes()] == [
        lap.off[1:].tobytes(), lap.diag[1:].tobytes()]
    for values, source in ((problem._tau, link), (problem._vp_coef, 1.0 / (4.0 * p.D * link))):
        assert values.tobytes() == source.tobytes()
        assert not values.flags.writeable


# -- two-scale Laplacian -----------------------------------------------------


def test_laplacian_equal_scales_is_plain_neumann():
    # tau_dead = tau_sub = 1: every coupling is 1, size N(K+1)+1 = 9
    p = ExperimentParams(N=2, K=3, tau_dead=1.0, tau_exp=3.0)
    assert p.tau_sub == 1.0
    dense = build_laplacian(p).to_dense()
    assert np.array_equal(dense, dense_two_scale_laplacian(2, 3, 1.0, 1.0))
    assert np.array_equal(np.diag(dense), [-1, -2, -2, -2, -2, -2, -2, -2, -1])


def test_laplacian_two_scale_pattern():
    # s0 = 0.5, s2 = 2; junction diagonals -(s0 + s2) = -2 s1 with s1 = 1.25
    p = ExperimentParams(N=2, K=3, tau_dead=2.0, tau_exp=1.5)
    assert p.tau_sub == 0.5
    dense = build_laplacian(p).to_dense()
    assert np.array_equal(dense, dense_two_scale_laplacian(2, 3, 2.0, 0.5))
    assert dense[1, 1] == -(0.5 + 2.0)
    assert dense[4, 4] == -(2.0 + 0.5)  # window-end node before the next gap


def test_laplacian_rows_sum_to_zero():
    for n, k in ((1, 1), (3, 4), (2, 7)):
        p = ExperimentParams(N=n, K=k)
        dense = build_laplacian(p).to_dense()
        # couplings are O(1/tau); allow rounding at that scale
        assert np.max(np.abs(dense.sum(axis=1))) < 1e-12 / p.tau_dead
        assert np.array_equal(dense, dense.T)


def test_laplacian_splits_into_unit_coupling_parts():
    p = ExperimentParams(N=3, K=4)
    whole = build_laplacian(p).to_dense()
    # the dead links' unit-coupling Laplacian: link j joins nodes j and j+1,
    # and each window starts with one dead link
    dead = np.zeros((p.node_count, p.node_count))
    for j in range(0, p.node_count - 1, p.K + 1):
        dead[j:j + 2, j:j + 2] += [[-1.0, 1.0], [1.0, -1.0]]
    parts = dead / p.tau_dead + exposure_coupling(p).to_dense() / p.tau_sub
    assert np.array_equal(whole, parts)


def test_negated_laplacian_is_positive_semidefinite():
    rng = np.random.default_rng(0)
    for _ in range(8):
        n = int(rng.integers(1, 6))
        k = int(rng.integers(1, 9))
        tau_dead = float(rng.uniform(1e-3, 1.0))
        tau_exp = float(rng.uniform(1e-3, 1.0)) * k
        p = ExperimentParams(N=n, K=k, tau_dead=tau_dead, tau_exp=tau_exp)
        eigs = np.linalg.eigvalsh(-build_laplacian(p).to_dense())
        assert eigs.min() >= -1e-10


def test_exposure_block_small_spectra():
    assert exposure_block_eigenvalues(1) == pytest.approx([0.0, -2.0], abs=1e-14)
    assert sorted(exposure_block_eigenvalues(2)) == pytest.approx([-3.0, -1.0, 0.0],
                                                                  abs=1e-14)


def test_exposure_block_matches_dense_eigensolve():
    for k in (1, 3, 5):
        analytic = np.sort(exposure_block_eigenvalues(k))
        dense = np.sort(np.linalg.eigvalsh(dense_neumann_block(k)))
        assert np.max(np.abs(analytic - dense)) < 1e-10


def test_exposure_coupling_spectrum_is_block_union():
    p = ExperimentParams(N=2, K=3)
    eigs = np.linalg.eigvalsh(exposure_coupling(p).to_dense())
    block = exposure_block_eigenvalues(3)
    reference = np.concatenate(([0.0], block, block))
    assert np.max(np.abs(np.sort(eigs) - np.sort(reference))) < 1e-10


# -- energies ----------------------------------------------------------------


def test_v_prior_two_link_formula():
    p = ExperimentParams(N=1, K=1, D=2.0, tau_dead=0.01, tau_exp=0.01)
    problem = PosteriorProblem(p)
    a, b = 0.7, -0.4
    expect = (a**2 + (b - a) ** 2) / (4 * 2.0 * 0.01)
    assert v_prior(np.array([0.0, a, b]), problem) == pytest.approx(expect, rel=1e-14)


def test_v_prior_vanishes_on_constants():
    problem, _ = random_problem(0, 2, 3)
    m = problem.node_count
    assert v_prior(np.zeros(m), problem) == 0.0
    assert v_prior(np.full(m, 1.3), problem) == 0.0


def test_v_like_zero_counts_is_signal_sum():
    p = ExperimentParams(N=3, K=4)
    problem = PosteriorProblem(p, counts=np.zeros(3, dtype=int))
    q = 0.3 * RandomStream(0, 0).standard_normals(p.node_count)
    assert v_like(q, problem) == pytest.approx(signal(q, p).sum(), rel=1e-13)
    assert v_like(np.zeros(p.node_count), problem) == pytest.approx(13.77, rel=1e-12)


def test_v_like_even_under_global_negation():
    problem, _ = random_problem(1, 2, 5)
    q = 0.5 * RandomStream(2, 0).standard_normals(problem.node_count)
    assert v_like(q, problem) == v_like(-q, problem)


def test_prior_only_problem_has_no_likelihood():
    p = ExperimentParams(N=2, K=2)
    problem = PosteriorProblem(p)  # counts omitted
    q = RandomStream(0, 0).standard_normals(p.node_count)
    assert v_like(q, problem) == 0.0
    assert np.all(grad_v_like(q, problem) == 0.0)


# -- gradients ---------------------------------------------------------------


def test_gradients_vanish_at_origin():
    problem, _ = random_problem(3, 2, 4)
    m = problem.node_count
    assert np.all(grad_v_prior(np.zeros(m), problem) == 0.0)
    assert np.all(grad_v_like(np.zeros(m), problem) == 0.0)
    assert np.all(grad_v_prior(np.full(m, 2.0), problem) == 0.0)


def test_gradients_match_finite_differences():
    problem, _ = random_problem(4, 2, 4)
    q = 0.4 * RandomStream(5, 0).standard_normals(problem.node_count)
    fd_prior = central_diff_grad(lambda x: v_prior(x, problem), q)
    fd_like = central_diff_grad(lambda x: v_like(x, problem), q)
    gp = grad_v_prior(q, problem)
    gl = grad_v_like(q, problem)
    assert np.linalg.norm(gp - fd_prior) / np.linalg.norm(fd_prior) < 1e-6
    assert np.linalg.norm(gl - fd_like) / np.linalg.norm(fd_like) < 1e-6
    full = grad_v(q, problem)
    assert np.allclose(full, gp + gl, rtol=0, atol=0)


def test_grad_v_like_is_odd():
    problem, _ = random_problem(6, 3, 3)
    q = 0.6 * RandomStream(7, 0).standard_normals(problem.node_count)
    assert np.array_equal(grad_v_like(-q, problem), -grad_v_like(q, problem))


def test_grad_anchor_entry_carries_no_likelihood():
    problem, _ = random_problem(8, 2, 3)
    q = RandomStream(8, 0).standard_normals(problem.node_count)
    assert grad_v_like(q, problem)[0] == 0.0


def _oracle_cases(count, seed):
    """(problem, q) pairs over N 1..12, K 1..15 (K = 1 has no interior
    node), zero counts, four state scales, all-zero states, random +-0
    entries and nonzero or non-finite anchors."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        p = ExperimentParams(N=int(rng.integers(1, 13)), K=int(rng.integers(1, 16)))
        counts = rng.integers(0, 6, p.N)
        counts[rng.random(p.N) < 0.3] = 0
        problem = PosteriorProblem(p, counts=None if case % 25 == 0 else counts)
        q = (1e-6, 0.1, 1.0, 5.0)[case % 4] * rng.standard_normal(p.node_count)
        if case % 5 == 0:
            q[:] = 0.0
        if case % 5 == 1:
            zero = rng.random(p.node_count) < 0.4
            q[zero] = np.where(rng.random(zero.sum()) < 0.5, 0.0, -0.0)
        q[0] = (0.0, -0.0, 0.7, math.nan, -math.inf, 0.0)[case % 6]
        yield problem, q


def test_grad_v_like_bit_identical_to_the_window_loop():
    for problem, q in _oracle_cases(360, seed=21):
        got = grad_v_like(q, problem)
        assert got.tobytes() == _oracles.grad_v_like(q, problem).tobytes()
        assert got[0] == 0.0 and not np.signbit(got[0])
        expect = grad_v_prior(q, problem) + _oracles.grad_v_like(q, problem)
        assert grad_v(q, problem).tobytes() == expect.tobytes()


def _compensated_sum(values, start=0):
    """Builtin ``sum`` of floats as Python 3.12 computes it (Neumaier)."""
    total, comp = float(start), 0.0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            comp += (total - t) + x
        else:
            comp += (x - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


def test_grad_v_like_bits_do_not_depend_on_builtin_sum(monkeypatch):
    # a module global named sum shadows the builtin inside the kernel
    cases = list(_oracle_cases(50, seed=23))
    expect = [grad_v_like(q, problem).tobytes() for problem, q in cases]
    monkeypatch.setattr(posterior, "sum", _compensated_sum, raising=False)
    assert [grad_v_like(q, problem).tobytes() for problem, q in cases] == expect


def _nonfinite_cases(count, seed):
    """``_oracle_cases`` with NaN or +-inf at one to three random nodes in
    every third case."""
    rng = np.random.default_rng([seed, 1])
    for case, (problem, q) in enumerate(_oracle_cases(count, seed)):
        if case % 3 == 2:
            nodes = rng.integers(0, len(q), int(rng.integers(1, 4)))
            q[nodes] = rng.choice([math.nan, math.inf, -math.inf], len(nodes))
        yield problem, q


def _large_mesh_cases(seed):
    """(problem, q) pairs on meshes of M = 1,001 to 10,501 nodes, at three
    state scales, with random +-0 entries; summing their energy terms in any
    order but left to right changes the last bits."""
    rng = np.random.default_rng(seed)
    for n, k in ((250, 3), (50, 20), (97, 13), (500, 20)):
        p = ExperimentParams(N=n, K=k)
        problem = PosteriorProblem(p, counts=rng.integers(0, 6, n))
        for scale in (1e-3, 0.1, 1.0):
            q = scale * rng.standard_normal(p.node_count)
            zero = rng.random(p.node_count) < 0.3
            q[zero] = np.where(rng.random(zero.sum()) < 0.5, 0.0, -0.0)
            q[0] = 0.0
            yield problem, q


def test_kernels_bit_identical_to_the_index_loops():
    # compared by bytes: the sign of zero and NaN bits must match too
    def bits(x):
        return np.float64(x).tobytes()

    for problem, q in itertools.chain(_nonfinite_cases(300, seed=22), _large_mesh_cases(24)):
        assert grad_v_prior(q, problem).tobytes() == _oracles.grad_v_prior(q, problem).tobytes()
        assert grad_v_like(q, problem).tobytes() == _oracles.grad_v_like(q, problem).tobytes()
        assert bits(v_prior(q, problem)) == bits(_oracles.v_prior(q, problem))
        assert bits(v_like(q, problem)) == bits(_oracles.v_like(q, problem))


def test_gradients_return_fresh_writable_arrays():
    # the integrators scale a returned gradient in place
    for counts in (None, np.array([2, 0, 5])):
        problem = PosteriorProblem(ExperimentParams(N=3, K=4), counts=counts)
        q = 0.3 * RandomStream(2, 0).standard_normals(problem.node_count)
        for grad in (grad_v, grad_v_like, grad_v_prior):
            first = grad(q, problem)
            second = grad(q, problem)
            for g in (first, second):
                assert g.flags.writeable and g.flags.owndata
                assert not np.shares_memory(g, q)
            assert not np.shares_memory(first, second)


def test_grad_shape_mismatch():
    problem, _ = random_problem(9, 2, 2)
    with pytest.raises(ValueError):
        grad_v_prior(np.zeros(3), problem)
    with pytest.raises(ValueError):
        grad_v_like(np.zeros(3), problem)


# -- Hamiltonians ------------------------------------------------------------


def test_hamiltonian_zero_state_equals_potential():
    p = ExperimentParams(N=3, K=4)
    problem = PosteriorProblem(p, counts=np.zeros(3, dtype=int))
    hmc = HmcParams(theta=0.5)
    m = p.node_count
    assert hamiltonian(np.zeros(m), np.zeros(m), problem, hmc) == pytest.approx(
        13.77, rel=1e-12)


def test_hamiltonian_unit_kinetic_increment():
    p = ExperimentParams(N=3, K=2)
    problem = PosteriorProblem(p, counts=np.zeros(3, dtype=int))
    hmc = HmcParams()
    q = np.zeros(p.node_count)
    mom = np.zeros(p.node_count)
    mom[1] = math.sqrt(2.0)  # p.p = 2
    base = hamiltonian(q, np.zeros_like(mom), problem, hmc)
    assert hamiltonian(q, mom, problem, hmc) == pytest.approx(base + 1.0, rel=1e-14)


def test_hamiltonian_split_identity_is_exact():
    problem, _ = random_problem(10, 2, 3)
    hmc = HmcParams(theta=0.37)
    q = 0.3 * RandomStream(11, 0).standard_normals(problem.node_count)
    mom = RandomStream(12, 0).standard_normals(problem.node_count)
    total = hamiltonian(q, mom, problem, hmc)
    split = hamiltonian_like(q, mom, problem, hmc) + hamiltonian_prior(
        q, mom, problem, hmc)
    assert total == split


# -- spectral bound and certificate ------------------------------------------


def test_bound_value_on_benchmark_params():
    p = ExperimentParams(K=20)
    expect = 1.0 / (500.0 * 1e-6) + 2.0 / (500.0 * p.tau_sub)
    assert max_eigenvalue_bound(p) == pytest.approx(expect, rel=1e-14)
    assert max_eigenvalue_bound(p) == pytest.approx(2888.889, rel=1e-4)


def test_bound_equal_scales():
    p = ExperimentParams(D=2.0, tau_dead=0.05, tau_exp=0.05, K=1)
    assert max_eigenvalue_bound(p) == pytest.approx(3.0 / (2.0 * 0.05), rel=1e-14)


def test_bound_dominates_dense_spectrum():
    rng = np.random.default_rng(1)
    for _ in range(6):
        n = int(rng.integers(1, 8))
        k = int(rng.integers(1, 12))
        p = ExperimentParams(N=n, K=k, D=float(rng.uniform(1, 1000)),
                             tau_dead=float(rng.uniform(1e-5, 1e-2)),
                             tau_exp=float(rng.uniform(1e-5, 1e-2)) * k)
        gradient_map = -build_laplacian(p).to_dense() / (2.0 * p.D)
        assert max_eigenvalue_bound(p) > np.linalg.eigvalsh(gradient_map).max()


def test_bound_requires_positive_diffusion():
    with pytest.raises(ValueError):
        max_eigenvalue_bound(ExperimentParams(D=0.0))
    with pytest.raises(ValueError):
        verlet_step_bound(ExperimentParams(D=0.0), 0.5)


def test_verlet_step_bound_values():
    p = ExperimentParams()
    assert verlet_step_bound(p, 0.5) == 2.0 / math.sqrt(0.5 * max_eigenvalue_bound(p))
    assert verlet_step_bound(p, 0.5) == pytest.approx(0.0526235, rel=1e-6)
    assert verlet_step_bound(p, 1.0) == pytest.approx(0.0372104, rel=1e-6)
    assert verlet_step_bound(p, 0.0) == math.inf


@pytest.mark.parametrize("mesh", [{}, {"K": 100}, {"tau_dead": 1e-5}])
def test_prior_stable_just_below_verlet_step_bound(tmp_path, mesh):
    # the exact edges 2/sqrt(theta lambda_max) are 0.0596, 0.0424 and 0.0951
    config = apply_overrides(default_config("stability", seed=0, out_dir=tmp_path), mesh)
    h = 0.99 * verlet_step_bound(config.params, config.hmc.theta)
    energies = np.array(exp_stability(replace(config, sweep=[h])).rows)[:, 5]
    assert np.all(np.isfinite(energies))
    assert np.max(np.abs(energies)) / abs(energies[0]) < 10.0


def test_certificate_benchmark_values():
    cert = cfl_certificate(ExperimentParams(K=20), HmcParams(theta=0.5, h=0.1))
    assert cert.c == pytest.approx(math.sqrt(0.5 / (500.0 * 4.5e-6)), rel=1e-12)
    assert cert.c == pytest.approx(14.907, rel=1e-4)
    assert cert.h_max == pytest.approx(0.13416, rel=1e-4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cfl_certificate(ExperimentParams(), HmcParams())  # no side effect


def test_certificate_zero_theta_unconditional():
    cert = cfl_certificate(ExperimentParams(), HmcParams(theta=0.0, h=5.0))
    assert cert.h_max == math.inf
