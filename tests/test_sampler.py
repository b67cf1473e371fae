import collections
import math
import warnings

import numpy as np
import pytest

import _oracles
import fcshmc.integrators
import fcshmc.posterior
import fcshmc.sampler
from fcshmc.model import ExperimentParams, simulate, time_mesh
from fcshmc.posterior import (
    HmcParams,
    PosteriorProblem,
    Scheme,
    hamiltonian,
    hamiltonian_like,
    hamiltonian_prior,
    v_like,
    v_prior,
)
from fcshmc.rng import RandomStream
from fcshmc.sampler import (
    draw_momentum,
    hmc_update,
    reflect_head,
    reflect_tail,
    reflection_log_ratio,
    reflection_update,
    run_chain,
)


def seeded_problem(seed=21, n=2, k=3):
    p = ExperimentParams(N=n, K=k)
    sim = simulate(RandomStream(seed, 1), p)
    return PosteriorProblem(p, counts=sim.counts)


def random_q(problem, seed, scale=0.1):
    q = scale * RandomStream(seed, 2).standard_normals(problem.node_count)
    q[0] = 0.0
    return q


# -- HMC updates -------------------------------------------------------------


def test_momentum_draw_scale_and_anchor():
    stream = RandomStream(0, 6)
    draws = np.array([draw_momentum(stream, 5) for _ in range(20000)])
    assert np.all(draws[:, 0] == 0.0)
    assert draws[:, 1:].var() == pytest.approx(1.0, rel=0.05)


def test_tiny_step_proposal_is_accepted():
    problem = seeded_problem()
    hmc = HmcParams(h=1e-8, L=1, scheme="svex")
    q = random_q(problem, 22)
    _, accepted, h_before, h_after = hmc_update(q, problem, hmc, RandomStream(0, 3))
    assert accepted
    assert abs(h_after - h_before) <= 1e-6 * (1.0 + abs(h_before))


def test_unstable_step_rejects_and_keeps_state():
    problem = seeded_problem(n=20, k=20)
    hmc = HmcParams(h=0.2, L=5, scheme="svex")
    q = random_q(problem, 23)
    stream = RandomStream(1, 3)
    accepted = 0
    for _ in range(50):
        q_new, move_accepted, _, _ = hmc_update(q, problem, hmc, stream)
        if move_accepted:
            accepted += 1
        else:
            assert q_new is q  # rejected update hands back the same state
    assert accepted / 50 < 0.05


def test_update_consumes_fixed_draw_budget():
    # identical streams stay aligned across problems with different data and
    # different accept/reject patterns
    p = ExperimentParams(N=2, K=3)
    dark = PosteriorProblem(p, counts=np.zeros(2, dtype=int))
    lit = PosteriorProblem(p, counts=simulate(RandomStream(24, 1), p).counts)
    hmc = HmcParams(h=0.05, L=8, updates=20, scheme="svex")
    out = []
    for problem in (dark, lit):
        stream = RandomStream(7, 0)
        run_chain(np.zeros(p.node_count), problem, hmc, stream)
        out.append(stream.uniform())
    assert out[0] == out[1]


def test_update_kernel_call_counts(monkeypatch):
    # counted at the names bench/run.py traces, so that its per-layer
    # calls_per_update compare across changes
    names = [(fcshmc.integrators, "thomas_solve"), (fcshmc.integrators, "tridiag_matvec"),
             (fcshmc.posterior, "grad_v_like"), (fcshmc.posterior, "grad_v_prior"),
             (fcshmc.posterior, "v_like"), (fcshmc.posterior, "v_prior")]
    calls = collections.Counter()

    def counting(fn, name):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for owner, name in names:
        monkeypatch.setattr(owner, name, counting(getattr(owner, name), name))
    problem = seeded_problem()
    q = random_q(problem, seed=4)
    L = 7
    expected = {
        "imex": dict(thomas_solve=2 * (L + 1), tridiag_matvec=3 * (L + 1),
                     grad_v_like=2 * L, grad_v_prior=0, v_like=2, v_prior=2),
        "svex": dict(thomas_solve=0, tridiag_matvec=0,
                     grad_v_like=L + 1, grad_v_prior=L + 1, v_like=2, v_prior=2),
    }
    for scheme, want in expected.items():
        calls.clear()
        hmc_update(q, problem, HmcParams(h=0.01, L=L, scheme=scheme), RandomStream(3, 0))
        assert {name: calls[name] for _, name in names} == want


def test_scheme_table_and_hmc_update_dispatch_agree(monkeypatch):
    # the experiments take each scheme's maps from SCHEME_MAPS, hmc_update
    # names its drivers itself: both must pair every scheme alike
    integ = fcshmc.integrators
    assert list(integ.SCHEME_MAPS) == list(Scheme)
    assert integ.SCHEME_MAPS == {Scheme.SVEX: (integ.svex_l_steps, integ.sv_full_step),
                                 Scheme.IMEX: (integ.imex_l_steps, integ.imex_step)}
    calls = collections.Counter()

    def counting(fn):
        def wrapper(*args):
            calls[fn] += 1
            return fn(*args)
        return wrapper

    for driver, _ in integ.SCHEME_MAPS.values():
        monkeypatch.setattr(fcshmc.sampler, driver.__name__, counting(driver))
    problem = seeded_problem()
    q = random_q(problem, seed=4)
    for scheme, (driver, _) in integ.SCHEME_MAPS.items():
        calls.clear()
        hmc_update(q, problem, HmcParams(h=0.01, L=3, scheme=scheme), RandomStream(3, 0))
        assert calls == {driver: 1}, scheme


# -- reflections -------------------------------------------------------------


def test_reflect_segments_and_involution():
    p = ExperimentParams(N=2, K=3)
    problem = PosteriorProblem(p)
    q = random_q(problem, 25)
    head = reflect_head(q, 1, 2, p)
    pos = 0 * (p.K + 1) + 2 + 1
    assert np.array_equal(head[1 : pos + 1], -q[1 : pos + 1])
    assert np.array_equal(head[pos + 1 :], q[pos + 1 :])
    tail = reflect_tail(q, 1, 2, p)
    assert np.array_equal(tail[pos + 1 :], -q[pos + 1 :])
    assert np.array_equal(tail[: pos + 1], q[: pos + 1])
    for move in (reflect_head, reflect_tail):
        twice = move(move(q, 2, 1, p), 2, 1, p)
        assert np.array_equal(twice, q)


def test_reflect_terminal_node_degenerates():
    p = ExperimentParams(N=2, K=2)
    problem = PosteriorProblem(p)
    q = random_q(problem, 26)
    full = reflect_head(q, p.N, p.K, p)
    assert np.array_equal(full[1:], -q[1:])
    kept = reflect_tail(q, p.N, p.K, p)
    assert np.array_equal(kept, q)
    assert kept is not q


def test_reflect_rejects_bad_indices():
    p = ExperimentParams(N=2, K=3)
    q = np.zeros(p.node_count)
    for n, k in ((0, 1), (1, 0), (3, 1), (1, 4)):
        with pytest.raises(IndexError):
            reflect_head(q, n, k, p)
        with pytest.raises(IndexError):
            reflect_tail(q, n, k, p)


def test_likelihood_exactly_even_under_reflections():
    problem = seeded_problem(27, n=2, k=4)
    p = problem.params
    q = random_q(problem, 27, scale=0.2)
    base = v_like(q, problem)
    for n in range(1, p.N + 1):
        for k in range(1, p.K + 1):
            assert v_like(reflect_head(q, n, k, p), problem) == base
            assert v_like(reflect_tail(q, n, k, p), problem) == base


def test_localized_ratio_matches_full_energy_difference():
    problem = seeded_problem(28, n=3, k=3)
    p = problem.params
    q = random_q(problem, 28, scale=0.3)

    def total(x):
        return v_prior(x, problem) + v_like(x, problem)

    base = total(q)
    for n in range(1, p.N + 1):
        for k in range(1, p.K + 1):
            log_r = reflection_log_ratio(q, n, k, problem)
            for move in (reflect_head, reflect_tail):
                full = base - total(move(q, n, k, p))
                if move is reflect_tail and (n, k) == (p.N, p.K):
                    full = 0.0  # identity move
                assert abs(log_r - full) <= 1e-10 * (1.0 + abs(full))


def test_sweep_leaves_origin_in_place():
    problem = seeded_problem(29)
    p = problem.params
    q = np.zeros(p.node_count)
    out, accepted = reflection_update(q, problem, RandomStream(0, 4))
    assert np.array_equal(out, np.zeros(p.node_count))
    assert accepted == p.N * p.K  # zero-ratio proposals always accepted


def test_sweep_matches_public_single_moves():
    # The sweep against a loop over the public single moves, from twin
    # streams: one head/tail draw, then per node (n, k) in mesh order one
    # uniform, reflection_log_ratio, and reflect_head/reflect_tail on accept.
    rng = np.random.default_rng(30)
    accepts = rejects = 0
    for case in range(40):
        p = ExperimentParams(N=int(rng.integers(1, 5)), K=int(rng.integers(1, 7)))
        problem = PosteriorProblem(p)
        q = (0.01, 0.03, 0.1)[case % 3] * rng.standard_normal(p.node_count)
        q[0] = 0.0
        sweep_stream, ref_stream = RandomStream(case, 5), RandomStream(case, 5)
        swept, n_swept = reflection_update(q.copy(), problem, sweep_stream)
        ref, n_ref = q.copy(), 0
        move = reflect_head if ref_stream.uniform() < 0.5 else reflect_tail
        for n in range(1, p.N + 1):
            for k in range(1, p.K + 1):
                u = ref_stream.uniform()
                log_r = reflection_log_ratio(ref, n, k, problem)
                if log_r >= 0.0 or u < math.exp(log_r):
                    ref = move(ref, n, k, p)
                    n_ref += 1
        assert np.array_equal(swept, ref)
        assert n_swept == n_ref
        assert sweep_stream.uniform() == ref_stream.uniform()
        accepts += n_ref
        rejects += p.N * p.K - n_ref
    assert accepts > 0 and rejects > 0


def assert_sweep_matches_oracle(q, problem, seed, sweeps=1):
    """Run the sweep and the oracle loop from twin streams on copies of q;
    returns (first sweep made head moves, accepted flips, proposals)."""
    fast, ref = q.copy(), q.copy()
    fast_stream, ref_stream = RandomStream(seed, 5), RandomStream(seed, 5)
    accepts = 0
    for _ in range(sweeps):
        out, n_fast = reflection_update(fast, problem, fast_stream)
        _, n_ref = _oracles.reflection_sweep(ref, problem, ref_stream)
        assert out is fast
        assert np.array_equal(fast, ref)
        assert np.array_equal(np.signbit(fast), np.signbit(ref))
        assert n_fast == n_ref
        accepts += n_ref
    assert fast_stream.uniform() == ref_stream.uniform()
    head = RandomStream(seed, 5).uniform() < 0.5
    return head, accepts, sweeps * problem.params.N * problem.params.K


def test_sweep_matches_oracle_on_flip_heavy_states():
    # all-zero and 1e-6-scale states accept (almost) every proposal
    heads = 0
    for case in range(24):
        p = ExperimentParams(N=1 + 7 * (case % 8), K=1 + case % 20)
        problem = PosteriorProblem(p)
        q = np.zeros(p.node_count) if case % 2 else \
            1e-6 * np.random.default_rng(case).standard_normal(p.node_count)
        q[0] = 0.0
        drew_head, accepts, proposals = assert_sweep_matches_oracle(q, problem, 100 + case)
        assert accepts >= 0.9 * proposals
        heads += drew_head
    assert 0 < heads < 24


def test_sweep_matches_oracle_on_signed_zeros():
    rng = np.random.default_rng(36)
    heads = 0
    for case in range(30):
        p = ExperimentParams(N=int(rng.integers(1, 6)), K=int(rng.integers(1, 8)))
        problem = PosteriorProblem(p)
        q = 0.1 * rng.standard_normal(p.node_count)
        pick = rng.integers(0, 3, size=p.node_count)
        q[pick == 1] = 0.0
        q[pick == 2] = -0.0
        q[0] = 0.0
        drew_head, _, _ = assert_sweep_matches_oracle(q, problem, 200 + case)
        heads += drew_head
    assert 0 < heads < 30


def test_sweep_matches_oracle_on_random_meshes():
    # N up to 50, K up to 20, scales from flip-heavy to flip-rare, several
    # sweeps in a row on the same state
    rng = np.random.default_rng(37)
    heads = accepts = proposals = 0
    for case in range(40):
        p = ExperimentParams(N=int(rng.integers(1, 51)), K=int(rng.integers(1, 21)))
        problem = PosteriorProblem(p)
        q = (1e-3, 0.01, 0.1, 1.0)[case % 4] * rng.standard_normal(p.node_count)
        q[0] = 0.0
        drew_head, n_acc, n_prop = assert_sweep_matches_oracle(q, problem, 300 + case)
        assert_sweep_matches_oracle(q, problem, 400 + case, sweeps=3)
        heads += drew_head
        accepts += n_acc
        proposals += n_prop
    assert 0 < heads < 40
    assert 0 < accepts < proposals


def test_sweep_matches_oracle_at_ten_thousand_nodes():
    p = ExperimentParams(N=500, K=20)
    problem = PosteriorProblem(p)
    assert p.node_count == 10_501
    rng = np.random.default_rng(38)
    for seed, q in enumerate((np.zeros(p.node_count),
                              0.05 * rng.standard_normal(p.node_count))):
        q[0] = 0.0
        assert_sweep_matches_oracle(q, problem, 500 + seed)


def test_numpy_kernels_raise_no_warnings_on_non_finite_states():
    # blown-up proposals reach v_prior through hamiltonian; like the scalar
    # loops they replace, v_prior and the sweep's ratio pass give inf and NaN
    # (inf - inf, inf * 0, overflowing squares and products) without warnings
    p = ExperimentParams(N=3, K=4)
    problem = PosteriorProblem(p)
    rng = np.random.default_rng(40)
    states = []
    for bad in ((math.inf, math.inf), (-math.inf, math.inf), (math.nan, 0.5),
                (math.inf, 0.0), (1e200, -1e200), (1e300, 1e300)):
        for at in (1, 6, p.node_count - 2):
            q = 0.1 * rng.standard_normal(p.node_count)
            q[0] = 0.0
            q[at : at + 2] = bad
            states.append(q)
    # the energies' kinetic term sees blown-up momenta too
    finite_q = 0.1 * rng.standard_normal(p.node_count)
    finite_q[0] = 0.0
    momenta = []
    for bad in (1e200, -1e200, math.inf, -math.inf, math.nan):
        mom = rng.standard_normal(p.node_count)
        mom[0] = 0.0
        mom[4] = bad
        momenta.append(mom)
    hmc = HmcParams()
    energies = (hamiltonian, hamiltonian_like, hamiltonian_prior)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed, q in enumerate(states):
            v_prior(q, problem)
            reflection_update(q.copy(), problem, RandomStream(seed, 5))
        for q in (finite_q, *states):
            for mom in momenta:
                for energy in energies:
                    energy(q, mom, problem, hmc)
    assert not all(math.isfinite(v_prior(q, problem)) for q in states)
    assert not any(math.isfinite(energy(finite_q, mom, problem, hmc))
                   for energy in energies for mom in momenta)


def test_sweep_balances_sign_modes():
    # N=1, K=2 chain reduced to pure reflection sweeps.  The reachable states
    # are the four sign patterns (s, s, t) of the fixed magnitudes below; two
    # share each prior energy level.  Long-run visit frequencies must match
    # the Boltzmann weights (chi-square, 3 dof, alpha = 0.001).
    p = ExperimentParams(N=1, K=2, D=1.0, I_ref=5.0, I_bg=1.0,
                         tau_dead=2.0, tau_exp=1.0)
    problem = PosteriorProblem(p, counts=np.array([2]))
    mags = np.array([0.0, 0.8, 0.9, 0.7])

    signs = [(1, 1), (-1, 1), (1, -1), (-1, -1)]

    def energy(s12, s3):
        state = mags * np.array([1.0, s12, s12, s3])
        return v_prior(state, problem) + v_like(state, problem)

    levels = np.array([energy(*s) for s in signs])
    weights = np.exp(-(levels - levels.min()))
    target = weights / weights.sum()

    stream = RandomStream(31, 0)
    q = mags.copy()
    for _ in range(50):  # burn-in
        reflection_update(q, problem, stream)
    counts = np.zeros(4)
    draws = 4000
    for _ in range(draws):
        for _ in range(5):  # thin: decorrelate successive sweeps
            reflection_update(q, problem, stream)
        state = (1 if q[1] > 0 else -1, 1 if q[3] > 0 else -1)
        counts[signs.index(state)] += 1
    expected = target * draws
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 16.27  # 0.999 quantile of chi-square with 3 dof


# -- full chains -------------------------------------------------------------


def test_chain_shapes_and_validation():
    problem = seeded_problem(32)
    m = problem.node_count
    hmc = HmcParams(h=0.03, L=5, updates=0)
    chain = run_chain(np.zeros(m), problem, hmc, RandomStream(0, 9))
    assert chain.samples.shape == (1, m)
    assert len(chain.accepted) == 0
    assert math.isnan(chain.accept_rate)
    with pytest.raises(ValueError):
        run_chain(np.zeros(m - 1), problem, hmc, RandomStream(0, 9))
    bad = np.zeros(m)
    bad[0] = 1.0
    with pytest.raises(ValueError):
        run_chain(bad, problem, hmc, RandomStream(0, 9))
    for value in (math.nan, math.inf):
        bad = np.zeros(m)
        bad[m // 2] = value
        with pytest.raises(ValueError, match="init must be finite"):
            run_chain(bad, problem, hmc, RandomStream(0, 9))


def test_chain_is_reproducible():
    problem = seeded_problem(33)
    hmc = HmcParams(h=0.03, L=6, updates=30)
    a = run_chain(np.zeros(problem.node_count), problem, hmc, RandomStream(4, 0))
    b = run_chain(np.zeros(problem.node_count), problem, hmc, RandomStream(4, 0))
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.accepted, b.accepted)
    assert a.reflect_accepts == b.reflect_accepts


def test_prior_only_chain_recovers_node_variances():
    # without data the marginal at node i is N(0, 2 D t_i)
    p = ExperimentParams(N=2, K=3)
    problem = PosteriorProblem(p)
    hmc = HmcParams(h=0.03, L=12, updates=15000, scheme="svex")
    chain = run_chain(np.zeros(p.node_count), problem, hmc, RandomStream(0, 100))
    samples = chain.samples[1000:, 1:]
    elapsed = time_mesh(p).times[1:]
    ratio = samples.var(axis=0) / (2.0 * p.D * elapsed)
    assert chain.accept_rate > 0.5
    assert np.max(np.abs(ratio - 1.0)) < 0.15


def test_schemes_sample_the_same_posterior():
    p = ExperimentParams(N=6, K=6)
    problem = PosteriorProblem(p, counts=simulate(RandomStream(34, 1), p).counts)
    init = np.zeros(p.node_count)
    sv = run_chain(init, problem,
                   HmcParams(h=0.025, L=15, updates=400, scheme="svex"),
                   RandomStream(34, 100))
    im = run_chain(init, problem,
                   HmcParams(h=0.03, L=15, updates=400, scheme="imex"),
                   RandomStream(34, 101))
    assert sv.accept_rate > 0.3 and im.accept_rate > 0.3
    a = sv.samples[100:, 1:]
    b = im.samples[100:, 1:]
    sd = np.sqrt(0.5 * (a.var(axis=0) + b.var(axis=0)))
    assert np.max(np.abs(a.mean(axis=0) - b.mean(axis=0)) / sd) < 3.0
