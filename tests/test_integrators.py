import dataclasses
import hashlib
import itertools
import types

import numpy as np
import pytest

import _oracles
import fcshmc.integrators
import fcshmc.posterior
from fcshmc.integrators import (
    MidpointSystem,
    PhaseState,
    imex_l_steps,
    midpoint_prior_step,
    sv_likelihood_step,
    sv_prior_step,
    svex_l_steps,
)
from fcshmc.model import ExperimentParams, simulate
from fcshmc.posterior import (
    HmcParams,
    PosteriorProblem,
    Scheme,
    hamiltonian_prior,
)
from fcshmc.rng import RandomStream
from fcshmc.sampler import hmc_update
from fcshmc.tridiag import (
    SingularSystemError,
    TridiagonalOperator,
    thomas_solve,
    tridiag_matvec,
)


def small_problem(seed=5, n=2, k=2):
    p = ExperimentParams(N=n, K=k)
    sim = simulate(RandomStream(seed, 1), p)
    return PosteriorProblem(p, counts=sim.counts)


def random_state(problem, seed=5, scale=0.05):
    m = problem.node_count
    q = scale * RandomStream(seed, 2).standard_normals(m)
    q[0] = 0.0
    p = RandomStream(seed, 3).standard_normals(m)
    return PhaseState(q=q, p=p)


def at_one_step(driver):
    """A scheme's one-step map: its L-step driver at L = 1."""
    def step(state, problem, hmc):
        return driver(state, problem, dataclasses.replace(hmc, L=1))
    step.__name__ = f"{driver.__name__}_at_L1"
    return step


svex_one_step = at_one_step(svex_l_steps)
imex_one_step = at_one_step(imex_l_steps)
# the one-step maps, and the drivers at L > 1, whose merged half steps HMC's
# detailed balance relies on
_STEP_MAPS = (svex_one_step, sv_likelihood_step, sv_prior_step, imex_one_step,
              svex_l_steps, imex_l_steps)


def soft_problem():
    # all couplings O(1): telescoping error is pure round-off here
    p = ExperimentParams(D=0.5, I_ref=5.0, I_bg=1.0, omega=0.5,
                         tau_dead=1.0, tau_exp=2.0, N=1, K=2)
    sim = simulate(RandomStream(3, 1), p)
    return PosteriorProblem(p, counts=sim.counts)


# -- tridiagonal kernels -----------------------------------------------------


def test_operator_band_lengths_checked():
    with pytest.raises(ValueError):
        TridiagonalOperator(off=np.zeros(3), diag=np.zeros(3))


def test_matvec_matches_dense():
    rng = np.random.default_rng(2)
    for n in (1, 2, 17, 60):
        op = TridiagonalOperator(off=rng.normal(size=n - 1), diag=rng.normal(size=n))
        v = rng.normal(size=n)
        assert np.max(np.abs(tridiag_matvec(op, v) - op.to_dense() @ v)) < 1e-13
    with pytest.raises(ValueError):
        tridiag_matvec(op, np.zeros(n + 1))


def test_solver_identity_and_textbook_system():
    eye = TridiagonalOperator(off=np.zeros(2), diag=np.ones(3))
    rhs = np.array([4.0, -1.0, 2.5])
    assert np.array_equal(thomas_solve(eye, rhs), rhs)

    op = TridiagonalOperator(off=-np.ones(2), diag=2 * np.ones(3))
    x = thomas_solve(op, np.array([1.0, 0.0, 0.0]))
    assert x == pytest.approx([0.75, 0.5, 0.25], rel=1e-14)


def test_solver_residual_on_diagonally_dominant_systems():
    rng = np.random.default_rng(3)
    for n in (2, 10, 100):
        off = rng.normal(size=n - 1)
        diag = 3.0 + np.abs(rng.normal(size=n))
        diag[1:] += np.abs(off)
        diag[:-1] += np.abs(off)
        op = TridiagonalOperator(off=off, diag=diag)
        rhs = rng.normal(size=n)
        x = thomas_solve(op, rhs)
        assert np.max(np.abs(op.to_dense() @ x - rhs)) < 1e-12
    with pytest.raises(ValueError):
        thomas_solve(op, np.zeros(n - 1))


def test_solver_zero_pivot_raises():
    first = TridiagonalOperator(off=np.ones(1), diag=np.array([0.0, 1.0]))
    # pivot cancels during elimination: b1 - a0 * a0 / b0 = 0
    later = TridiagonalOperator(off=np.ones(1), diag=np.array([1.0, 1.0]))
    for op in (first, later):
        for _ in range(3):  # every solve, not only the first
            with pytest.raises(SingularSystemError):
                thomas_solve(op, np.ones(2))
        # the matvec does not need the factorization
        assert np.array_equal(tridiag_matvec(op, np.ones(2)), op.to_dense() @ np.ones(2))


def test_operator_bands_are_read_only_copies():
    off, diag = np.ones(2), np.array([4, 5, 6])
    op = TridiagonalOperator(off=off, diag=diag)
    off[0] = 7.0
    assert op.off[0] == 1.0
    assert op.diag.dtype == np.float64
    for band in (op.off, op.diag):
        with pytest.raises(ValueError):
            band[0] = 2.0
    assert np.array_equal(tridiag_matvec(op, np.ones(3)), [5.0, 7.0, 7.0])


def _twins(off, diag):
    """An operator and, for the per-call loops, its bands as given."""
    raw = types.SimpleNamespace(off=np.array(off, dtype=float), diag=np.array(diag, dtype=float),
                                size=len(diag))
    return TridiagonalOperator(off=off, diag=diag), raw


def _same_bits(x, y):
    """Equal bit patterns: values, signs of zero and NaN bits."""
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def _random_twins(rng, n):
    off = rng.normal(size=n - 1)
    diag = rng.normal(size=n)
    # mixed signs of zero in the bands: equal floats that must stay distinct
    off[::4] = -0.0
    off[2::4] = 0.0
    return _twins(off, diag)


def test_kernels_bit_identical_to_the_per_call_loops():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 50):
        for _ in range(10):
            op, raw = _random_twins(rng, n)
            # repeated calls on one operator reuse its cached lists
            for call in range(3):
                v = rng.normal(size=n)
                v[::3] = -0.0
                if call == 1:  # non-finite entries must propagate the same way
                    nodes = rng.integers(0, n, 2)
                    v[nodes] = rng.choice([np.nan, np.inf, -np.inf], 2)
                assert _same_bits(tridiag_matvec(op, v), _oracles.tridiag_matvec(raw, v))
                assert _same_bits(thomas_solve(op, v), _oracles.thomas_solve(raw, v))


def test_kernels_return_fresh_writable_arrays():
    # midpoint_prior_step adds into the matvec results in place
    rng = np.random.default_rng(13)
    for n in (1, 2, 50):
        op = TridiagonalOperator(off=rng.normal(size=n - 1), diag=4.0 + rng.random(n))
        v = rng.normal(size=n + 1)[1:]  # a view, as the midpoint step passes
        for kernel in (tridiag_matvec, thomas_solve):
            first = kernel(op, v)
            second = kernel(op, v)
            for r in (first, second):
                assert r.flags.writeable and r.flags.owndata
                assert not np.shares_memory(r, v)
            assert not np.shares_memory(first, second)


def test_kernels_keep_the_sign_of_zero():
    # bands of +-0 entries: every sum is of zeros, and its sign tells which
    # band entry was used where
    for a, b0, b1 in itertools.product((0.0, -0.0), repeat=3):
        op, raw = _twins([a], [b0, b1])
        for v in itertools.product((1.0, -1.0), repeat=2):
            assert _same_bits(tridiag_matvec(op, v), _oracles.tridiag_matvec(raw, v))
        op, raw = _twins([a], [1.0, -1.0])
        for v in itertools.product((0.0, -0.0), repeat=2):
            assert _same_bits(thomas_solve(op, v), _oracles.thomas_solve(raw, v))


def test_midpoint_kernels_bit_identical_to_the_per_call_loops():
    system = MidpointSystem.build(small_problem(n=3, k=4), HmcParams(h=0.03, L=5), 0.03)
    rng = np.random.default_rng(12)
    for _ in range(4):
        v = rng.normal(size=system.lhs.size)
        for op in (system.lhs, system.rhs_op, system.scaled_lap):
            assert _same_bits(tridiag_matvec(op, v), _oracles.tridiag_matvec(op, v))
        assert _same_bits(thomas_solve(system.lhs, v), _oracles.thomas_solve(system.lhs, v))


def test_laplacian_matvec_annihilates_constants():
    p = ExperimentParams(N=2, K=3, tau_dead=1.0, tau_exp=3.0)
    lap = fcshmc.posterior.build_laplacian(p)
    assert np.array_equal(tridiag_matvec(lap, np.full(lap.size, 3.0)),
                          np.zeros(lap.size))


# -- one-step maps -----------------------------------------------------------


def test_phase_state_shape_check():
    with pytest.raises(ValueError):
        PhaseState(q=np.zeros(3), p=np.zeros(4))


def test_maps_return_frozen_states_of_fresh_arrays():
    # the maps build their states without the constructor's shape check
    problem = small_problem()
    hmc = HmcParams(h=0.05, L=3)
    st = random_state(problem)
    half = MidpointSystem.build(problem, hmc, 0.5 * hmc.h)
    outs = [step(st, problem, hmc) for step in _STEP_MAPS]
    outs.append(midpoint_prior_step(st, half))
    for out in outs:
        assert type(out) is PhaseState
        assert out.q.shape == out.p.shape == st.q.shape
        for new, old in ((out.q, st.q), (out.p, st.p)):
            assert new.flags.writeable and not np.shares_memory(new, old)
        with pytest.raises(dataclasses.FrozenInstanceError):
            out.q = st.q


def test_full_step_free_flight(monkeypatch):
    problem = small_problem()
    monkeypatch.setattr(fcshmc.posterior, "grad_v", lambda q, _: np.zeros_like(q))
    hmc = HmcParams(h=0.3)
    st = random_state(problem)
    out = svex_one_step(st, problem, hmc)
    expect_q = st.q.copy()
    expect_q[1:] += 0.3 * st.p[1:]
    assert np.array_equal(out.q, expect_q)
    assert np.array_equal(out.p, st.p)


def test_all_maps_fix_the_origin():
    problem = small_problem()
    hmc = HmcParams(h=0.05, theta=0.5, L=3)
    zero = PhaseState(q=np.zeros(problem.node_count), p=np.zeros(problem.node_count))
    for step in _STEP_MAPS:
        out = step(zero, problem, hmc)
        assert np.array_equal(out.q, zero.q)
        assert np.array_equal(out.p, zero.p)


def test_anchor_slot_is_frozen():
    problem = small_problem()
    hmc = HmcParams(h=0.012, L=3)
    st = random_state(problem)
    st.q[0] = 0.4  # nonzero anchor must pass through untouched
    st.p[0] = -1.2
    for step in _STEP_MAPS:
        out = step(st, problem, hmc)
        assert out.q[0] == st.q[0]
        assert out.p[0] == st.p[0]


def test_momentum_flip_reversibility():
    problem = small_problem()
    hmc = HmcParams(h=0.012, theta=0.5, L=3)
    st = random_state(problem)
    for step in _STEP_MAPS:
        fwd = step(st, problem, hmc)
        back = step(PhaseState(q=fwd.q, p=-fwd.p), problem, hmc)
        assert np.max(np.abs(back.q - st.q)) < 1e-12
        assert np.max(np.abs(back.p + st.p)) < 1e-12


def test_drivers_are_symplectic_over_several_steps():
    # acceptance check 4 covers single steps; a driver at L = 3 also runs
    # the merged half kicks and the merged midpoint maps (M = 7)
    problem = small_problem()
    hmc = HmcParams(h=0.012, theta=0.5, L=3)
    st = random_state(problem)
    st.p[0] = 0.0
    omega = _oracles.canonical_form(problem.node_count - 1)
    for driver in (svex_l_steps, imex_l_steps):
        def as_pair(q, p):
            out = driver(PhaseState(q=q, p=p), problem, hmc)
            return out.q, out.p

        jac = _oracles.phase_space_jacobian(as_pair, st.q, st.p)
        assert np.max(np.abs(jac.T @ omega @ jac - omega)) < 1e-5, driver


def test_likelihood_step_theta_one_freezes_positions():
    problem = small_problem()
    hmc = HmcParams(h=0.07, theta=1.0)
    st = random_state(problem)
    out = sv_likelihood_step(st, problem, hmc)
    assert np.array_equal(out.q, st.q)
    kick = fcshmc.posterior.grad_v_like(st.q, problem)
    expect = st.p.copy()
    expect[1:] -= hmc.h * kick[1:]
    assert np.allclose(out.p, expect, rtol=0, atol=1e-12)


def test_prior_step_stable_below_certificate():
    problem = small_problem(n=20, k=20)
    hmc = HmcParams(h=0.02, theta=0.5)
    st = random_state(problem)
    h0 = hamiltonian_prior(st.q, st.p, problem, hmc)
    worst = 0.0
    for _ in range(100):
        st = sv_prior_step(st, problem, hmc)
        worst = max(worst, abs(hamiltonian_prior(st.q, st.p, problem, hmc)))
    assert worst / abs(h0) < 10.0


def test_prior_step_blows_up_at_large_step():
    problem = small_problem(n=20, k=20)
    hmc = HmcParams(h=0.2, theta=0.5)
    st = random_state(problem)
    h0 = hamiltonian_prior(st.q, st.p, problem, hmc)
    for _ in range(100):
        st = sv_prior_step(st, problem, hmc)
    final = hamiltonian_prior(st.q, st.p, problem, hmc)
    assert not np.isfinite(final) or abs(final) / abs(h0) > 1e6


# -- implicit midpoint -------------------------------------------------------


def test_midpoint_theta_zero_only_kicks_momentum():
    problem = small_problem()
    hmc = HmcParams(theta=0.0, h=0.4)
    system = MidpointSystem.build(problem, hmc, hmc.h)
    st = random_state(problem)
    out = midpoint_prior_step(st, system)
    assert np.array_equal(out.q, st.q)
    lap = fcshmc.posterior.build_laplacian(problem.params)
    lap_q = lap.to_dense() @ st.q  # q[0] = 0, so active == full
    expect = st.p.copy()
    expect[1:] += (hmc.h / (2.0 * problem.params.D)) * lap_q[1:]
    assert np.allclose(out.p, expect, rtol=1e-13, atol=1e-13)


def test_midpoint_matches_dense_linear_solve():
    problem = small_problem(n=3, k=3)
    hmc = HmcParams(theta=0.5, h=0.09)
    system = MidpointSystem.build(problem, hmc, hmc.h)
    st = random_state(problem, seed=7)
    out = midpoint_prior_step(st, system)

    lap = problem.active_laplacian.to_dense()
    alpha = hmc.theta * hmc.h**2 / (8.0 * problem.params.D)
    lhs = np.eye(len(lap)) - alpha * lap
    rhs_op = np.eye(len(lap)) + alpha * lap
    qa, pa = st.q[1:], st.p[1:]
    q_ref = np.linalg.solve(lhs, rhs_op @ qa + (hmc.theta * hmc.h) * pa)
    p_ref = np.linalg.solve(
        lhs, rhs_op @ pa + (hmc.h / (2.0 * problem.params.D)) * (lap @ qa))
    assert np.max(np.abs(out.q[1:] - q_ref)) < 1e-12
    assert np.max(np.abs(out.p[1:] - p_ref)) < 1e-12


@pytest.mark.parametrize("h", [0.05, 0.3, 1.34])
def test_midpoint_conserves_prior_energy_at_any_step(h):
    problem = small_problem(n=4, k=5)
    hmc = HmcParams(theta=0.5, h=h)
    system = MidpointSystem.build(problem, hmc, h)
    st = random_state(problem, seed=9)
    before = hamiltonian_prior(st.q, st.p, problem, hmc)
    out = midpoint_prior_step(st, system)
    after = hamiltonian_prior(out.q, out.p, problem, hmc)
    assert abs(after - before) <= 1e-10 * (1.0 + abs(before))


def test_midpoint_build_refuses_a_step_whose_dominance_rounds_away():
    # at h = 1e8 the margin 1 of the left-hand diagonal is lost to rounding;
    # the refusal is a ValueError, not a bare assert that -O would skip
    problem = PosteriorProblem(ExperimentParams(N=2, K=2))
    with pytest.raises(SingularSystemError, match=r"h = 1e\+08"):
        MidpointSystem.build(problem, HmcParams(theta=0.5), 1e8)


def test_midpoint_stable_far_beyond_explicit_limit():
    # ten times the explicit certificate step 0.134
    problem = small_problem(n=4, k=5)
    hmc = HmcParams(theta=0.5, h=1.34)
    system = MidpointSystem.build(problem, hmc, hmc.h)
    st = random_state(problem, seed=11)
    h0 = hamiltonian_prior(st.q, st.p, problem, hmc)
    for _ in range(100):
        st = midpoint_prior_step(st, system)
    assert abs(hamiltonian_prior(st.q, st.p, problem, hmc)) / abs(h0) < 10.0


# -- L-step drivers ----------------------------------------------------------


def test_single_split_step_builds_no_full_step_system():
    problem = small_problem()
    hmc = HmcParams(h=0.012, L=1)
    imex_l_steps(random_state(problem), problem, hmc)
    assert [key[1] for key in problem._cache if key[0] == "midpoint"] == [0.5 * hmc.h]


def test_imex_telescoping_matches_repeated_steps_on_soft_mesh():
    problem = soft_problem()
    hmc = HmcParams(h=2e-5, L=7)
    q = RandomStream(3, 2).standard_normals(problem.node_count)
    q[0] = 0.0
    st = PhaseState(q=q, p=RandomStream(3, 4).standard_normals(problem.node_count))
    merged = imex_l_steps(st, problem, hmc)
    naive = st
    for _ in range(hmc.L):
        naive = imex_one_step(naive, problem, hmc)
    assert np.max(np.abs(merged.q - naive.q)) < 1e-12
    assert np.max(np.abs(merged.p - naive.p)) < 1e-12


def test_imex_driver_is_the_merged_product_form():
    # composing the public one-step maps in the merged order reproduces the
    # driver bitwise, at a step size where merging visibly differs from
    # repeated Strang steps
    problem = small_problem()
    hmc = HmcParams(h=0.012, L=6)
    st = random_state(problem, seed=17)
    half = MidpointSystem.build(problem, hmc, 0.5 * hmc.h)
    full = MidpointSystem.build(problem, hmc, hmc.h)
    manual = midpoint_prior_step(st, half)
    manual = sv_likelihood_step(manual, problem, hmc)
    for _ in range(hmc.L - 1):
        manual = midpoint_prior_step(manual, full)
        manual = sv_likelihood_step(manual, problem, hmc)
    manual = midpoint_prior_step(manual, half)
    driver = imex_l_steps(st, problem, hmc)
    assert np.array_equal(manual.q, driver.q)
    assert np.array_equal(manual.p, driver.p)


def test_svex_matches_naive_leapfrog_composition():
    problem = small_problem()
    hmc = HmcParams(h=0.012, L=13)
    st = random_state(problem, seed=19)
    merged = svex_l_steps(st, problem, hmc)
    naive = st
    for _ in range(hmc.L):
        naive = svex_one_step(naive, problem, hmc)
    assert np.max(np.abs(merged.q - naive.q)) < 1e-12
    assert np.max(np.abs(merged.p - naive.p)) < 1e-12


# sha256(q bytes + p bytes) of each public map's output at unit mass, recorded
# while the maps still took a scalar mass; an ``_at_L1`` key is a scheme's
# one-step map, its driver at L = 1.  theta = 0.3 keeps every
# theta-dependent coefficient form (h (1 - theta), h theta, theta h and
# theta h^2 / 8D) pinned.
_MAP_DIGESTS = {
    "svex_l_steps_at_L1": "d2a361d9e0a011b59b6b1cbf662853a22468810de5d039d48fc3d8cc764dfa4f",
    "sv_likelihood_step": "52a551bdc496842d0653a6a33569926ee8b55f99bbe653bacc122821032f8923",
    "sv_prior_step": "5706d30721c4ce9d57ee2e29182e3b2d01493514e5f24d71b410ea6c95167a36",
    "svex_l_steps": "decf144a63cfa691c330f909486128848643574614b8427068ab2987e59c9687",
    "imex_l_steps_at_L1": "d88b8b7716587e64ad0227a3c1f0a2192e751a5f839e06b89e63d6c57180ea8c",
    "imex_l_steps": "6bc385f06c1c1b623767fe3be3b9b20402c39f3b498d56cc261423383b98d61d",
}


def test_maps_match_digests():
    problem = small_problem(n=2, k=10)  # M = 23
    hmc = HmcParams(h=0.02, L=5, theta=0.3)
    st = random_state(problem, seed=23)
    digests = {}
    for step in _STEP_MAPS:
        out = step(st, problem, hmc)
        assert np.all(np.isfinite(out.q)) and np.all(np.isfinite(out.p))
        digests[step.__name__] = hashlib.sha256(out.q.tobytes() + out.p.tobytes()).hexdigest()
    assert digests == _MAP_DIGESTS


# (q . w, p . w) with w = (1, ..., M) of each public map's output at h = 0.02
# and a scalar mass m, recorded while the maps still took one (same problem,
# state, theta and L as the digests above).
_MASS_MAP_SUMS = {
    1.3: {
        "svex_l_steps_at_L1": (-5.650906273713461, -179.51819444219456),
        "sv_likelihood_step": (-4.841684830424281, -183.69886372968477),
        "sv_prior_step": (-3.7065052476999183, -179.31221100304657),
        "svex_l_steps": (-16.53836892965701, -181.6696774097911),
        "imex_l_steps_at_L1": (-5.651255904580835, -179.47439607322423),
        "imex_l_steps": (-16.535489840602022, -181.45136261942574),
    },
    1.9: {
        "svex_l_steps_at_L1": (-4.773724204353435, -179.42271303700724),
        "sv_likelihood_step": (-4.220046374734523, -183.69664127047204),
        "sv_prior_step": (-3.4433445549757478, -179.2844019260433),
        "svex_l_steps": (-12.150027248901635, -178.5290617507659),
        "imex_l_steps_at_L1": (-4.773888639864908, -179.39359000200636),
        "imex_l_steps": (-12.150843312789181, -178.30092963428112),
    },
}


@pytest.mark.parametrize("mass", sorted(_MASS_MAP_SUMS))
def test_maps_match_digests_off_unit_mass(mass):
    # a mass m is the step h / sqrt(m): the unit-mass maps at that step, on
    # momenta p / sqrt(m) and with sqrt(m) times their output momenta, give
    # the maps the mass-m code gave, to rounding
    problem = small_problem(n=2, k=10)  # M = 23
    scale = np.sqrt(mass)
    hmc = HmcParams(h=0.02 / scale, L=5, theta=0.3)
    st = random_state(problem, seed=23)
    st = PhaseState(q=st.q, p=st.p / scale)
    w = np.arange(1.0, problem.node_count + 1)
    for step in _STEP_MAPS:
        out = step(st, problem, hmc)
        sums = (float(out.q @ w), float(scale * out.p @ w))
        assert sums == pytest.approx(_MASS_MAP_SUMS[mass][step.__name__], rel=1e-13), step


def test_svex_gradient_evaluation_count(monkeypatch):
    # one update's calls through every name the benchmark's tracer patches
    # below the drivers; the traced calls_per_update read these counts
    counted = [(fcshmc.posterior, "grad_v"), (fcshmc.posterior, "grad_v_prior"),
               (fcshmc.posterior, "grad_v_like"),
               (fcshmc.integrators, "midpoint_prior_step"),
               (fcshmc.integrators, "sv_likelihood_step"),
               (fcshmc.integrators, "thomas_solve"), (fcshmc.integrators, "tridiag_matvec")]
    calls = dict.fromkeys((name for _, name in counted), 0)

    def counting(name, func):
        def wrapper(*args):
            calls[name] += 1
            return func(*args)
        return wrapper

    for owner, name in counted:
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    problem = small_problem()
    q = random_state(problem, seed=19).q
    for L, scheme in itertools.product((1, 5), Scheme):
        hmc = HmcParams(h=0.012, L=L, scheme=scheme)
        calls.update(dict.fromkeys(calls, 0))
        hmc_update(q, problem, hmc, RandomStream(19, 6))
        if scheme is Scheme.SVEX:
            expect = dict(grad_v=L + 1, grad_v_prior=L + 1, grad_v_like=L + 1)
        else:
            expect = dict(grad_v_like=2 * L, sv_likelihood_step=L,
                          midpoint_prior_step=L + 1, thomas_solve=2 * (L + 1),
                          tridiag_matvec=3 * (L + 1))
        assert calls == {name: expect.get(name, 0) for name in calls}, (scheme, L)
