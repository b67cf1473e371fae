"""Acceptance gate: twelve end-to-end checks on the benchmark configuration.

One test per criterion, each printing the measured quantities it asserts on
(shown by pytest for failing tests; run with -s to see them for passing
ones).  The thresholds are fixed targets for the benchmark setup, not tuned
to the implementation: where the measured dynamics genuinely miss a target,
the test fails and the printed line carries the measured value.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from _oracles import (
    canonical_form,
    central_diff_grad,
    dense_neumann_block,
    dense_two_scale_laplacian,
    phase_space_jacobian,
)
from fcshmc.harness import (
    apply_overrides,
    default_config,
    exp_complexity,
    exp_convergence,
    exp_efficiency,
    exp_stability,
    exp_surrogate,
    fit_loglog_slope,
)
from fcshmc.integrators import (
    MidpointSystem,
    PhaseState,
    imex_l_steps,
    midpoint_prior_step,
    sv_likelihood_step,
    sv_prior_step,
    svex_l_steps,
)
from fcshmc.model import ExperimentParams, simulate, time_mesh
from fcshmc.posterior import (
    HmcParams,
    PosteriorProblem,
    build_laplacian,
    cfl_certificate,
    exposure_block_eigenvalues,
    exposure_coupling,
    grad_v_like,
    grad_v_prior,
    hamiltonian,
    v_like,
    v_prior,
)
from fcshmc.rng import RandomStream
from fcshmc.sampler import draw_momentum, reflect_head, reflect_tail, \
    reflection_log_ratio, run_chain


def test_criterion_01_two_scale_laplacian_is_exact():
    # (tau_dead, tau_exp) with K = 3, so tau_sub = tau_exp / 3
    cases = [(1.0, 3.0), (2.0, 1.5), (1e-6, 1.35e-5)]
    outcomes = []
    for tau_dead, tau_exp in cases:
        p = ExperimentParams(N=2, K=3, tau_dead=tau_dead, tau_exp=tau_exp)
        dense = build_laplacian(p).to_dense()
        oracle = dense_two_scale_laplacian(2, 3, p.tau_dead, p.tau_sub)
        outcomes.append(bool(np.array_equal(dense, oracle)))
    print(f"criterion 01: elementwise equality per (tau_dead, tau_sub) case: {outcomes}")
    assert all(outcomes)


def test_criterion_02_exposure_spectra_analytic_vs_dense():
    worst_block = 0.0
    for k in range(1, 17):
        analytic = np.sort(exposure_block_eigenvalues(k))
        dense = np.sort(np.linalg.eigvalsh(dense_neumann_block(k)))
        worst_block = max(worst_block, float(np.max(np.abs(analytic - dense))))
    worst_union = 0.0
    for k in range(1, 9):
        p = ExperimentParams(N=2, K=k)
        eigs = np.sort(np.linalg.eigvalsh(exposure_coupling(p).to_dense()))
        block = exposure_block_eigenvalues(k)
        reference = np.sort(np.concatenate(([0.0], block, block)))
        worst_union = max(worst_union, float(np.max(np.abs(eigs - reference))))
    print(f"criterion 02: block spectrum dev {worst_block:.3e}, "
          f"whole-operator dev {worst_union:.3e} (tol 1e-10)")
    assert worst_block <= 1e-10
    assert worst_union <= 1e-10


def test_criterion_03_gradients_match_finite_differences():
    worst_prior = worst_like = 0.0
    for inst in range(20):
        rng = np.random.default_rng(inst)
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 9))
        while n * (k + 1) + 1 > 50:
            k -= 1
        p = ExperimentParams(D=float(rng.uniform(50, 1000)), N=n, K=k)
        problem = PosteriorProblem(p, counts=simulate(RandomStream(inst, 1), p).counts)
        q = 0.3 * RandomStream(inst, 2).standard_normals(p.node_count)
        q[0] = 0.0
        fd_prior = central_diff_grad(lambda x: v_prior(x, problem), q)
        fd_like = central_diff_grad(lambda x: v_like(x, problem), q)
        worst_prior = max(worst_prior, float(
            np.linalg.norm(grad_v_prior(q, problem) - fd_prior)
            / np.linalg.norm(fd_prior)))
        worst_like = max(worst_like, float(
            np.linalg.norm(grad_v_like(q, problem) - fd_like)
            / np.linalg.norm(fd_like)))
    print(f"criterion 03: worst relative deviation prior {worst_prior:.3e}, "
          f"likelihood {worst_like:.3e} (tol 1e-6)")
    assert worst_prior < 1e-6
    assert worst_like < 1e-6


def test_criterion_04_symplectic_and_reversible_one_step_maps():
    p = ExperimentParams(N=2, K=2)
    problem = PosteriorProblem(p, counts=simulate(RandomStream(5, 1), p).counts)
    hmc = HmcParams(h=0.012, theta=0.5, L=1)  # the schemes' drivers at L = 1
    system = MidpointSystem.build(problem, hmc, hmc.h)
    m = p.node_count
    q0 = 0.05 * RandomStream(5, 2).standard_normals(m)
    q0[0] = 0.0
    p0 = RandomStream(5, 3).standard_normals(m)
    p0[0] = 0.0

    def as_pair(step):
        return lambda q, mom: (lambda s: (s.q, s.p))(step(PhaseState(q=q, p=mom)))

    maps = {
        "sv_full": as_pair(lambda s: svex_l_steps(s, problem, hmc)),
        "sv_likelihood": as_pair(lambda s: sv_likelihood_step(s, problem, hmc)),
        "sv_prior": as_pair(lambda s: sv_prior_step(s, problem, hmc)),
        "midpoint": as_pair(lambda s: midpoint_prior_step(s, system)),
        "imex": as_pair(lambda s: imex_l_steps(s, problem, hmc)),
    }
    omega = canonical_form(m - 1)
    defects, reversals = {}, {}
    for name, fn in maps.items():
        jac = phase_space_jacobian(fn, q0, p0)
        defects[name] = float(np.max(np.abs(jac.T @ omega @ jac - omega)))
        q1, p1 = fn(q0, p0)
        q2, p2 = fn(q1, -p1)
        reversals[name] = max(float(np.max(np.abs(q2 - q0))),
                              float(np.max(np.abs(p2 + p0))))
    print(f"criterion 04: symplectic defects {defects} (tol 1e-5); "
          f"reversibility {reversals} (tol 1e-10)")
    assert all(d < 1e-5 for d in defects.values())
    assert all(r < 1e-10 for r in reversals.values())


def test_criterion_05_certificate_window_for_explicit_prior_steps(tmp_path):
    result = exp_stability(default_config("stability", seed=0, out_dir=tmp_path))
    rows = np.array(result.rows)
    ratios = {}
    for h in (0.1, 0.2):
        energies = rows[rows[:, 0] == h][:, 5]
        ratios[h] = (math.inf if not np.all(np.isfinite(energies))
                     else float(np.max(np.abs(energies)) / abs(energies[0])))
    config = default_config("stability")
    cert = cfl_certificate(config.params, config.hmc)
    print(f"criterion 05: energy ratio at h=0.1: {ratios[0.1]:.3e} (target < 10), "
          f"at h=0.2: {ratios[0.2]:.3e} (target > 1e6), h_max = {cert.h_max:.6f}")
    assert cert.h_max == pytest.approx(0.134164, rel=1e-4)
    assert 0.1 < cert.h_max < 0.2
    assert ratios[0.2] > 1e6
    assert ratios[0.1] < 10.0


def test_criterion_06_split_scheme_energy_on_posterior_at_large_step():
    p = ExperimentParams()
    sim = simulate(RandomStream(0, 1), p)
    problem = PosteriorProblem(p, counts=sim.counts)
    hmc = HmcParams(h=0.2, L=100, scheme="imex", theta=0.5)
    state = PhaseState(q=sim.trajectory.copy(),
                       p=draw_momentum(RandomStream(0, 3), p.node_count))
    h0 = hamiltonian(state.q, state.p, problem, hmc)
    one_step = replace(hmc, L=1)  # the driver at L = 1 is one Strang step
    ratio = 1.0
    for _ in range(hmc.L):
        state = imex_l_steps(state, problem, one_step)
        h_now = hamiltonian(state.q, state.p, problem, hmc)
        if not math.isfinite(h_now):
            ratio = math.inf
            break
        ratio = max(ratio, abs(h_now) / abs(h0))
    print(f"criterion 06: total-energy ratio over {hmc.L} steps at h=0.2: "
          f"{ratio:.3e} (target < 1e3)")
    assert ratio < 1e3


def test_criterion_07_cheap_surrogate_bounds_the_stability_edge(tmp_path):
    result = exp_surrogate(default_config("surrogate", seed=0, out_dir=tmp_path))
    h_full = next((h for h, b_full, _ in result.rows if b_full > 1e6), None)
    h_prior = next((h for h, _, b_prior in result.rows if b_prior > 1e6), None)
    print(f"criterion 07: first blow-up h, full {h_full} vs prior surrogate "
          f"{h_prior} (full must come first)")
    assert h_full is not None and h_prior is not None
    assert h_full <= h_prior


def test_criterion_08_second_order_self_convergence(tmp_path):
    result = exp_convergence(default_config("convergence", seed=0, out_dir=tmp_path))
    rows = np.array(result.rows)
    h = rows[:, 0]
    slopes, points, spans = {}, {}, {}
    for col, name in ((1, "q_svex"), (2, "q_imex"), (3, "H_svex"), (4, "H_imex")):
        y = rows[:, col]
        keep = np.isfinite(y) & (y > 0)
        slopes[name] = fit_loglog_slope(h[keep], y[keep])
        points[name] = int(keep.sum())
        spans[name] = float(np.log10(h[keep].max() / h[keep].min()))
    print(f"criterion 08: slopes {({k: round(v, 4) for k, v in slopes.items()})} "
          f"(target 2.0 +- 0.2), points {points}, decades {spans}")
    for name in slopes:
        assert points[name] >= 6
        assert spans[name] >= 1.5
        assert 1.8 <= slopes[name] <= 2.2


@pytest.mark.slow
def test_criterion_09_acceptance_rate_windows_at_benchmark_step(tmp_path):
    config = apply_overrides(
        default_config("efficiency", seed=0, out_dir=tmp_path),
        {"sweep": "0.06", "updates_per_point": 200})
    result = exp_efficiency(config)
    (h, ar_svex, ar_imex), = result.rows
    print(f"criterion 09: mean acceptance at h={h}: explicit {ar_svex:.4f} "
          f"(target [0.23, 0.53]), split {ar_imex:.4f} (target [0.48, 0.78])")
    assert 0.23 <= ar_svex <= 0.53
    assert 0.48 <= ar_imex <= 0.78
    assert ar_imex > ar_svex


def test_criterion_10_linear_cost_in_trajectory_length(tmp_path):
    result = exp_complexity(default_config("complexity", seed=0, out_dir=tmp_path))
    rows = np.array(result.rows)
    slope_svex = fit_loglog_slope(rows[:, 0], rows[:, 1])
    slope_imex = fit_loglog_slope(rows[:, 0], rows[:, 2])
    print(f"criterion 10: wall-time slopes, explicit {slope_svex:.3f}, "
          f"split {slope_imex:.3f} (target 1.0 +- 0.3)")
    assert 0.7 <= slope_svex <= 1.3
    assert 0.7 <= slope_imex <= 1.3


@pytest.mark.slow
def test_criterion_11_posterior_spread_tracks_the_information():
    # prior-only chains must reproduce the pinned-walk node variances
    p = ExperimentParams(N=2, K=3)
    problem = PosteriorProblem(p)
    target = 2.0 * p.D * time_mesh(p).times[1:]
    errors = {}
    for scheme, h, steps in (("svex", 0.03, 12), ("imex", 0.03, 10)):
        hmc = HmcParams(h=h, L=steps, scheme=scheme, updates=200_000, seed=0)
        chain = run_chain(np.zeros(p.node_count), problem, hmc, RandomStream(0, 100))
        var = chain.samples[2000:, 1:].var(axis=0)
        errors[scheme] = float(np.max(np.abs(var / target - 1.0)))

    # with data, unobserved stretches must spread more than photon-rich ones
    p2 = ExperimentParams()
    sim = simulate(RandomStream(1, 1), p2)
    problem2 = PosteriorProblem(p2, counts=sim.counts)
    zero_windows = [n for n in range(p2.N) if sim.counts[n] == 0]
    rich = int(np.argmax(sim.counts))

    def window_nodes(n):
        base = 1 + n * (p2.K + 1)
        return np.arange(base, base + p2.K + 1)

    ratios = {}
    for scheme, h in (("svex", 0.025), ("imex", 0.03)):
        hmc = HmcParams(h=h, L=15, scheme=scheme, updates=1500, seed=0)
        chain = run_chain(sim.trajectory, problem2, hmc, RandomStream(0, 200))
        sd = chain.samples[300:].std(axis=0)
        sd_zero = float(np.mean([sd[window_nodes(n)].mean() for n in zero_windows]))
        sd_rich = float(sd[window_nodes(rich)].mean())
        ratios[scheme] = sd_zero / sd_rich
    print(f"criterion 11: max relative variance error {errors} (tol 0.05); "
          f"dark/bright spread ratios {ratios} (target > 1); "
          f"dark windows {len(zero_windows)}, bright count {int(sim.counts[rich])}")
    assert len(zero_windows) >= 3
    for scheme in ("svex", "imex"):
        assert errors[scheme] < 0.05
        assert ratios[scheme] > 1.0


def test_criterion_12_reflections_leave_the_likelihood_invariant():
    all_exact = True
    worst_ratio = 0.0
    for inst in range(10):
        rng = np.random.default_rng(100 + inst)
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 7))
        p = ExperimentParams(N=n, K=k)
        problem = PosteriorProblem(
            p, counts=simulate(RandomStream(100 + inst, 1), p).counts)
        q = 0.3 * RandomStream(100 + inst, 2).standard_normals(p.node_count)
        q[0] = 0.0
        base_like = v_like(q, problem)
        base_total = base_like + v_prior(q, problem)
        for wn in range(1, n + 1):
            for node in range(1, k + 1):
                head = reflect_head(q, wn, node, p)
                tail = reflect_tail(q, wn, node, p)
                all_exact &= v_like(head, problem) == base_like
                all_exact &= v_like(tail, problem) == base_like
                log_r = reflection_log_ratio(q, wn, node, problem)
                full = base_total - (v_prior(head, problem) + v_like(head, problem))
                worst_ratio = max(
                    worst_ratio, abs(log_r - full) / (1.0 + abs(full)))
    print(f"criterion 12: likelihood exactly invariant: {all_exact}; worst "
          f"localized-ratio deviation {worst_ratio:.3e} (tol 1e-10)")
    assert all_exact
    assert worst_ratio <= 1e-10
