import contextlib
import csv
import hashlib
import math
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from fcshmc import harness
from fcshmc.cli import EXIT_IO, EXIT_OK, EXIT_SETUP, EXIT_USAGE, main
from fcshmc.harness import (
    CONFIG_KEYS,
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    InferResult,
    SimulateResult,
    apply_overrides,
    default_config,
    exp_certify,
    exp_complexity,
    exp_convergence,
    exp_efficiency,
    exp_infer,
    exp_simulate,
    exp_stability,
    exp_surrogate,
    fit_loglog_slope,
    primes_below,
    read_config_file,
    _max_q_norm,
)
from fcshmc.integrators import MidpointSystem, PhaseState
from fcshmc.model import ExperimentParams, simulate
from fcshmc.posterior import HmcParams, PosteriorProblem, cfl_certificate, verlet_step_bound
from fcshmc.rng import RandomStream
from fcshmc.sampler import run_chain
from fcshmc.tridiag import SingularSystemError


def read_rows(path):
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def small_config(experiment, tmp_path, **overrides):
    config = default_config(experiment, seed=0, out_dir=tmp_path)
    base = dict(N=2, K=2)
    base.update(overrides)
    return apply_overrides(config, base)


# -- helpers -----------------------------------------------------------------


def test_primes_below():
    assert primes_below(2) == []
    assert primes_below(3) == [2]
    sieve = primes_below(100)
    assert len(sieve) == 25
    assert sieve[0] == 2 and sieve[-1] == 97


def test_loglog_slope_recovers_power_law():
    x = np.geomspace(0.01, 1.0, 9)
    assert fit_loglog_slope(x, 3.7 * x**2.5) == pytest.approx(2.5, rel=1e-10)
    # non-finite and non-positive points are dropped, not propagated
    y = 2.0 * x
    y[0] = math.inf
    y[1] = 0.0
    assert fit_loglog_slope(x, y) == pytest.approx(1.0, rel=1e-10)
    assert math.isnan(fit_loglog_slope([1.0, 2.0], [math.inf, math.inf]))


def test_max_q_norm_degenerate_and_blowup():
    state = PhaseState(q=np.array([0.0, 3.0, 4.0]), p=np.zeros(3))
    assert _max_q_norm(state, lambda s: s, steps=0) == 5.0

    def explode(s):
        return PhaseState(q=s.q * 1e200, p=s.p)

    assert _max_q_norm(state, explode, steps=3) == math.inf


@pytest.mark.parametrize("value", [1e200, math.inf, math.nan])
def test_norms_of_blown_up_states_are_inf_and_silent(tmp_path, monkeypatch, value):
    # the surrogate's step norms and the convergence errors of a blown-up
    # state read inf, without a RuntimeWarning
    blown = PhaseState(q=np.array([0.0, value, -value]), p=np.zeros(3))

    def integrate(init, problem, hmc, steps, track_energy):
        # the sweep runs (track_energy) end blown up; the reference runs end at init
        return (PhaseState(q=np.full_like(init.q, value), p=init.p) if track_energy
                else init), 0.0

    monkeypatch.setattr(harness, "_integrate_recorded", integrate)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _max_q_norm(blown, lambda s: s, steps=0) == math.inf
        assert _max_q_norm(replace(blown, q=np.ones(3)), lambda s: blown, steps=2) == math.inf
        result = exp_convergence(small_config("convergence", tmp_path, sweep="0.5"))
    (_, q_sv, q_im, _, _), = result.rows
    assert q_sv == q_im == math.inf


def array_records():
    """One instance of every record type with array fields."""
    params = ExperimentParams(N=2, K=2)
    sim = simulate(RandomStream(0, 1), params)
    problem = PosteriorProblem(params, counts=sim.counts)
    hmc = HmcParams(L=2, updates=2)
    q = sim.trajectory
    chain = run_chain(q, problem, hmc, RandomStream(0, 2))
    return [sim.mesh, sim, problem, problem.active_laplacian,
            PhaseState(q=q, p=q), MidpointSystem.build(problem, hmc, hmc.h), chain,
            SimulateResult(simulation=sim, paths=[]),
            InferResult(simulation=sim, chains={"svex": chain}, paths=[])]


def test_array_records_compare_by_identity():
    # field-wise == would ask numpy arrays for one truth value and raise;
    # these records compare and hash by identity instead
    for first, again in zip(array_records(), array_records()):
        assert (first == again) is False, type(first).__name__
        assert first == first
        assert len({first, again}) == 2


# -- configuration -----------------------------------------------------------


def test_default_config_per_experiment():
    stab = default_config("stability", seed=9)
    assert stab.sweep == [0.1, 0.2]
    assert stab.hmc.L == 100
    assert stab.hmc.seed == 9
    assert default_config("complexity").params.N == 2
    with pytest.raises(ValueError):
        default_config("warp")


def test_config_validation():
    ExperimentConfig(thin=np.int64(3), updates_per_point=np.int64(3))
    for bad in (dict(thin=0), dict(updates_per_point=0), dict(thin=2.5),
                dict(updates_per_point=2.5), dict(sweep=[])):
        with pytest.raises(ValueError):
            ExperimentConfig(**bad)
    # typed overrides reach the records unparsed: a fraction for an integer
    # key is refused, not truncated
    infer = default_config("infer")
    for bad in (dict(updates=2.5), dict(thin=2.5), dict(N=3.7), dict(L=15.0), dict(K=True)):
        with pytest.raises(ValueError, match="must be an integer"):
            apply_overrides(infer, bad)
    with pytest.raises(ValueError, match="seed must be an integer"):
        default_config("infer", seed=2.5)
    typed = apply_overrides(infer, dict(updates=np.int64(4), N=np.int32(3), sweep=(0.1, 0.2)))
    assert (typed.hmc.updates, typed.params.N, typed.sweep) == (4, 3, [0.1, 0.2])
    # an empty sweep is refused, not replaced by the experiment's default
    for text in ("", ",", " , "):
        with pytest.raises(ConfigError, match="^sweep: sweep needs at least one value"):
            apply_overrides(infer, dict(sweep=text))


@pytest.mark.parametrize("sweep", ["10.5 20", "nan", "inf"])
def test_complexity_rejects_fractional_mesh_sizes(tmp_path, sweep):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="whole K values"):
        exp_complexity(small_config("complexity", out, sweep=sweep))
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["infer", "--h", "nan"], ["infer", "--h", "inf"],
    ["infer", "--D", "nan"], ["infer", "--tau_exp", "inf"],
    ["convergence", "--sweep", "0"], ["convergence", "--sweep", "3"],
    ["convergence", "--sweep", "0.00005"],  # finer than the reference step
    ["convergence", "--sweep", "2"], ["convergence", "--sweep", "0.01,nan"],
    ["convergence", "--sweep", "0.01,inf"],
    ["complexity", "--sweep", "10.5 20"],
], ids=" ".join)
def test_cli_rejects_non_finite_or_fractional_setup_before_writing(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == EXIT_SETUP
    assert "invalid setup" in capsys.readouterr().err
    assert not out.exists()


def test_apply_overrides_typing_and_routing():
    config = default_config("simulate")
    out = apply_overrides(config, {
        "D": "750", "N": 5, "h": "0.07", "L": "11",
        "thin": "3", "out": "elsewhere", "sweep": "0.1, 0.2 0.3",
        "updates": None,  # None entries are ignored
    })
    assert out.params.D == 750.0 and out.params.N == 5
    assert out.hmc.h == 0.07 and out.hmc.L == 11
    assert out.thin == 3
    assert out.out_dir == Path("elsewhere")
    assert out.sweep == [0.1, 0.2, 0.3]
    # original untouched
    assert config.params.D == 500.0
    # every experiment sets its chains' scheme itself: no config key
    with pytest.raises(ConfigError, match="unknown config key"):
        apply_overrides(config, {"scheme": "imex"})


def test_apply_overrides_unknown_key():
    with pytest.raises(ConfigError, match="unknown config key"):
        apply_overrides(default_config("simulate"), {"tau_exmo": "1"})


@pytest.mark.parametrize("key", ["reference_h", "repeats"])
def test_cli_refuses_the_constant_reference_step_and_repeats(tmp_path, capsys, key):
    # convergence's reference step and complexity's best-of count are
    # constants: neither a flag nor a config-file key sets them
    out = tmp_path / "out"
    assert main(["convergence", f"--{key}", "1", "--out", str(out)]) == EXIT_USAGE
    assert f"--{key}" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = 1\n")
    assert main(["convergence", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
    assert f"unknown config key {key!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", [key for key in CONFIG_KEYS if key != "out"])
def test_apply_overrides_refused_text_names_the_key(key):
    # every parser but out's (a path) refuses "x"; the error names the key
    with pytest.raises(ConfigError, match=f"^{key}: "):
        apply_overrides(default_config("simulate"), {key: "x"})


def test_read_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# benchmark setup\n"
        "\n"
        "D = 250.0   # halved\n"
        "scheme = imex\n"
        "sweep = 0.02 0.04\n"
        "  # indented comment\n"
        "out = o#1\n"
    )
    assert read_config_file(path) == {
        "D": "250.0", "scheme": "imex", "sweep": "0.02 0.04", "out": "o#1"}
    (tmp_path / "twice.cfg").write_text("D = 250\nK = 3\nD = 500\n")
    with pytest.raises(ConfigError, match=r"twice.cfg:3: key 'D' repeats line 1"):
        read_config_file(tmp_path / "twice.cfg")
    (tmp_path / "bad.cfg").write_text("D 250\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        read_config_file(tmp_path / "bad.cfg")
    (tmp_path / "empty.cfg").write_text("D =\n")
    with pytest.raises(ConfigError, match="empty key or value"):
        read_config_file(tmp_path / "empty.cfg")
    with pytest.raises(OSError):
        read_config_file(tmp_path / "absent.cfg")


# -- experiments -------------------------------------------------------------


def test_simulate_outputs_and_determinism(tmp_path):
    first = exp_simulate(small_config("simulate", tmp_path / "a", N=4, K=3))
    again = exp_simulate(small_config("simulate", tmp_path / "b", N=4, K=3))
    counts_path, traj_path, meta_path = first.paths
    header, rows = read_rows(counts_path)
    assert header == ["n", "t_n", "u_n", "w_n"]
    assert len(rows) == 4
    header, rows = read_rows(traj_path)
    assert header == ["node_index", "time_sec", "q_um"]
    assert len(rows) == 4 * 4 + 1
    meta = meta_path.read_text()
    assert "experiment = simulate" in meta and "seed = 0" in meta
    # same seed, fresh run directory: identical data files
    assert counts_path.read_text() == again.paths[0].read_text()
    assert traj_path.read_text() == again.paths[1].read_text()
    different = exp_simulate(apply_overrides(
        small_config("simulate", tmp_path / "c", N=4, K=3), {"seed": 1}))
    assert counts_path.read_text() != different.paths[0].read_text()


def test_certify_report_and_csv(tmp_path):
    config = default_config("certify", out_dir=tmp_path)
    result = exp_certify(config)
    cert = cfl_certificate(config.params, config.hmc)
    assert result.certificate == cert
    assert "14.9071" in result.report
    assert f"{cert.h_max:.6g}" in result.report
    assert "stable" in result.report
    assert ("Verlet step bound h_bound = 0.0526235 (prior, weight theta), "
            "0.0372104 (explicit chain, weight 1)") in result.report.splitlines()
    header, rows = read_rows(result.paths[0])
    assert header == ["c", "h_max", "h", "stable"]
    assert float(rows[0][0]) == pytest.approx(cert.c, rel=1e-12)
    assert rows[0][3] == "1"


def test_surrogate_brackets_the_stability_edge(tmp_path):
    config = small_config("surrogate", tmp_path, sweep="0.0001 0.3")
    result = exp_surrogate(config)
    header, _ = read_rows(result.paths[0])
    assert header == ["h", "b_full", "b_prior"]
    (h_small, full_small, prior_small), (h_big, full_big, prior_big) = result.rows
    q_norm = full_small  # at h -> 0 the bound is essentially the initial norm
    assert h_small == 0.0001 and h_big == 0.3
    assert prior_small == pytest.approx(q_norm, rel=0.05)
    assert full_big > 1e6 and prior_big > 1e6


def test_stability_blow_up_is_silent(tmp_path):
    # h = 0.2 is past the prior's Verlet edge: over 3000 steps the state
    # overflows to inf and NaN with no RuntimeWarning (an error in Tier-1)
    result = exp_stability(small_config("stability", tmp_path, K=20, L=3000, sweep="0.2"))
    energies = [row[5] for row in result.rows]
    assert math.isfinite(energies[0]) and not math.isfinite(energies[-1])


def test_stability_records_phase_and_energy(tmp_path):
    config = small_config("stability", tmp_path, sweep="0.02", L=5)
    result = exp_stability(config)
    header, rows = read_rows(result.paths[0])
    assert header == ["h", "step", "eta", "q_coord", "p_coord", "H_prior"]
    assert len(rows) == 6  # steps 0..5 at one h
    assert [int(r[1]) for r in rows] == list(range(6))
    assert float(rows[3][2]) == pytest.approx(3 * 0.02, rel=1e-12)
    energies = [float(r[5]) for r in rows]
    assert all(math.isfinite(e) for e in energies)
    assert max(abs(e) for e in energies) / abs(energies[0]) < 10.0


def test_efficiency_small_steps_accept_everything(tmp_path):
    config = small_config("efficiency", tmp_path, sweep="0.0001",
                          updates_per_point=25, L=6)
    result = exp_efficiency(config)
    header, rows = read_rows(result.paths[0])
    assert header == ["h", "AR_svex", "AR_imex"]
    (h, ar_svex, ar_imex), = result.rows
    assert h == 0.0001
    assert ar_svex > 0.98 and ar_imex > 0.98
    meta = result.paths[1].read_text()
    assert "l_values = 2 3 5" in meta


def test_efficiency_refuses_a_bad_sweep_step_before_any_chain(monkeypatch, tmp_path, capsys):
    # row 0's step is fine, row 1's is not: no chain of row 0 runs
    def no_chain(*args):
        raise AssertionError("a chain ran")

    monkeypatch.setattr("fcshmc.harness.run_chain", no_chain)
    out = tmp_path / "out"
    assert main(["efficiency", "--N", "2", "--K", "3", "--sweep", "0.02,-1",
                 "--out", str(out)]) == EXIT_SETUP
    assert "h must be finite and > 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("experiment, sweep, first_point_work, refusal", [
    ("surrogate", "0.02,-1", "_max_q_norm", "h must be finite and > 0"),
    ("stability", "0.1,nan", "sv_prior_step", "h must be finite and > 0"),
    ("complexity", "10,0", "simulate", "K must be an integer >= 1"),
])
def test_sweep_refuses_a_bad_point_before_its_first_point(
        monkeypatch, tmp_path, capsys, experiment, sweep, first_point_work, refusal):
    # the first point is fine, a later one is not: the first point's work
    # never starts
    calls = []
    work = getattr(harness, first_point_work)

    def counting(*args):
        calls.append(args)
        return work(*args)

    monkeypatch.setattr(harness, first_point_work, counting)
    out = tmp_path / "out"
    assert main([experiment, "--sweep", sweep, "--out", str(out)]) == EXIT_SETUP
    assert refusal in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("length", [2, 1154])
def test_efficiency_rejects_lengths_that_sweep_nothing_or_alias(
        monkeypatch, tmp_path, capsys, length):
    # L = 2 leaves no prime length; L = 1154 gives 191, and then row 5's
    # chain streams reach row 0's data streams
    def no_chain(*args):
        raise AssertionError("a chain ran")

    monkeypatch.setattr("fcshmc.harness.run_chain", no_chain)
    out = tmp_path / "rejected"
    with pytest.raises(ValueError, match="3 <= L <= 1153"):
        exp_efficiency(small_config("efficiency", out, L=length))
    assert main(["efficiency", "--L", str(length), "--out", str(out)]) == EXIT_SETUP
    assert not out.exists()  # the runner writes only after the body returns
    capsys.readouterr()


def test_convergence_reference_point_has_zero_error(tmp_path):
    config = small_config("convergence", tmp_path, sweep="0.0001", L=100)
    result = exp_convergence(config)
    header, _ = read_rows(result.paths[0])
    assert header == ["h", "q_err_svex", "q_err_imex", "H_err_svex", "H_err_imex"]
    (h, q_sv, q_im, e_sv, e_im), = result.rows
    assert h == 0.0001
    assert q_sv == 0.0 and q_im == 0.0  # sweep h equals the reference h
    assert 0.0 < e_sv < math.inf and 0.0 < e_im < math.inf
    assert "# reference_h = 0.0001" in result.paths[-1].read_text().splitlines()


def test_complexity_times_both_schemes(tmp_path):
    config = small_config("complexity", tmp_path, sweep="5 8")
    result = exp_complexity(config)
    header, rows = read_rows(result.paths[0])
    assert header == ["K", "wall_svex_sec", "wall_imex_sec"]
    assert [int(r[0]) for r in rows] == [5, 8]
    assert all(float(r[1]) > 0 and float(r[2]) > 0 for r in rows)
    meta = result.paths[1].read_text()
    assert "timing = integration only, operators prebuilt" in meta
    assert "# repeats = 3\n" in meta
    ks, svex, imex = zip(*result.rows)
    assert f"# slope_svex = {fit_loglog_slope(ks, svex)}\n" in meta
    assert f"# slope_imex = {fit_loglog_slope(ks, imex)}\n" in meta


def test_infer_writes_chains_and_samples(tmp_path):
    config = small_config("infer", tmp_path, N=3, K=3, updates=30, thin=10)
    result = exp_infer(config)
    assert set(result.chains) == {"svex", "imex"}
    by_name = {path.name.rsplit("_", 1)[0]: path for path in result.paths}
    header, rows = read_rows(by_name["infer_chain_svex"])
    assert header == ["step", "accepted", "H_before", "H_after"]
    assert len(rows) == 30
    assert set(r[1] for r in rows) <= {"0", "1"}
    header, rows = read_rows(by_name["infer_samples_imex"])
    assert header == ["step", "node_index", "q_um"]
    m = config.params.node_count
    assert len(rows) == 4 * m  # steps 0, 10, 20, 30
    assert float(rows[0][2]) == result.simulation.trajectory[0]
    header, rows = read_rows(by_name["infer_counts"])
    assert len(rows) == 3


def test_infer_warns_at_the_verlet_step_bound(tmp_path):
    # the explicit chain runs at kinetic weight 1: 0.05 is past its bound,
    # though the theta-weighted certificate would pass it
    config = small_config("infer", tmp_path, h=0.05, L=5, updates=3)
    h_bound = verlet_step_bound(config.params, 1.0)
    assert h_bound < 0.05 < cfl_certificate(config.params, config.hmc).h_max
    with pytest.warns(UserWarning, match="explicit step bound"):
        result = exp_infer(config)
    assert f"# h_bound = {h_bound}" in result.paths[-1].read_text().splitlines()


def test_infer_refuses_the_split_step_before_any_chain(monkeypatch, tmp_path):
    # the split chain's midpoint systems are built before the explicit chain
    # runs, so a step they refuse costs no chain
    calls = []
    monkeypatch.setattr(harness, "run_chain", lambda *args: calls.append(args))
    config = small_config("infer", tmp_path / "out", h=1e9, updates=2)
    with pytest.warns(UserWarning, match="explicit step bound"), \
            pytest.raises(SingularSystemError, match="1e\\+09"):
        exp_infer(config)
    assert calls == []
    assert not (tmp_path / "out").exists()


def test_infer_that_raises_after_its_first_chain_leaves_no_directory(monkeypatch, tmp_path):
    # the explicit chain has run and its rows are queued when the split
    # chain raises; nothing reaches the disk
    calls = []

    def second_chain_fails(*args):
        calls.append(args)
        if len(calls) == 2:
            raise ValueError("second chain refused")
        return run_chain(*args)

    monkeypatch.setattr(harness, "run_chain", second_chain_fails)
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="second chain refused"):
        exp_infer(small_config("infer", out, updates=2))
    assert len(calls) == 2
    assert not out.exists()


def test_run_meta_records_the_sweep_that_ran(tmp_path):
    config = ExperimentConfig(params=ExperimentParams(N=2, K=2), hmc=HmcParams(L=3),
                              out_dir=tmp_path)
    result = exp_stability(config)
    assert "sweep = 0.1 0.2" in result.paths[-1].read_text().splitlines()


# SHA-256 of every CSV (stamp stripped from the file name) of small runs at a
# fixed seed: experiment -> (config overrides, digests).
# These digests change only in a change that means to change outputs, and
# such a change says so in CHANGES.md.
GOLDEN_RUNS = {
    "simulate": (dict(N=4, K=3), {
        "simulate_counts": "8418164d787e2851708dc0c95cfe19f75f51d442ba99d5acc7865f3e9957beaf",
        "simulate_trajectory": "6c7dd777e78ca6de04ddf03e67a81926e646dc662dcd64aebe893c51ed1b0bd5",
    }),
    "infer": (dict(N=3, K=3, updates=30, thin=10), {
        "infer_counts": "d294cbad7762a433022256f449f7268eeb152ea9426a6794182eb834c760d211",
        "infer_truth": "0fa6bd6443bc573477a97eef5dd2d8dd91235b687fb956e477ecb22ad1cd7c31",
        "infer_chain_svex": "eac5704dd3a35323b14d0032a2dada2b0843a61600a43dc9c9e7bab2e9af056b",
        "infer_samples_svex": "2175b75de25b39e7d96a885c66531abd0402d99d81c090e17c0690e42466de39",
        "infer_chain_imex": "1f95eecc93bb78bed0920b2de1177908e8c21f1303d539f9e603c27668e6363a",
        "infer_samples_imex": "975954f7bc4368e71b7003bd8940e6eda5b896110b7c2df5e4f5fcf1bce75a56",
    }),
    "certify": ({}, {
        "certify": "93b66a014858401b9b6cb997f36425504f1f45d1ae666d0b5dc23a242fd91cc4",
    }),
    "surrogate": (dict(sweep="0.01 0.05 0.3"), {
        "surrogate": "975abd29fdbb99422d831d066f3f62596e1ff12d3d7cd20a5f468dbefef224ce",
    }),
    "stability": (dict(sweep="0.02 0.2", L=5), {
        "stability": "89b3bdb1aefb71198c53d13acf13041ad8fb41e4cbb3b382289009c6141ca63a",
    }),
    "efficiency": (dict(sweep="0.02 0.1", updates_per_point=10, L=6), {
        "efficiency": "0295621abf582246dd9c564072cbc285fd6d2c010356efdb3f760347b1d5e501",
    }),
    "convergence": (dict(sweep="0.01 0.02"), {
        "convergence": "0df5f71f1a5cdc43bd7befce36c6e0386e0fdd9b91b97c15245b34176838d661",
    }),
}


def golden_run(name, out_dir):
    overrides, _ = GOLDEN_RUNS[name]
    config = apply_overrides(default_config(name, seed=3, out_dir=out_dir),
                             {"N": 2, "K": 2, **overrides})
    return config, EXPERIMENTS[name](config)


def csv_digests(result):
    return {path.name.rsplit("_", 1)[0]: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in result.paths if path.suffix == ".csv"}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_csv_outputs_match_golden_digests(tmp_path, name):
    _, result = golden_run(name, tmp_path)
    assert csv_digests(result) == GOLDEN_RUNS[name][1]


@pytest.mark.parametrize("name", sorted(set(EXPERIMENTS) - {"complexity"}))
def test_every_registered_default_changes_the_output(tmp_path, name):
    # a default the experiment never reads is dead configuration; complexity
    # is left out because its CSV holds wall times
    config, result = golden_run(name, tmp_path / "default")
    baseline = csv_digests(result)
    unread = []
    for key in EXPERIMENTS[name].defaults:
        section, field_name, _ = CONFIG_KEYS[key]
        value = getattr(getattr(config, section) if section else config, field_name)
        other = value[:1] if isinstance(value, list) else 2 * value
        # infer's doubled h, 0.06, is past the explicit step bound 0.0433 at K = 3
        warns = (pytest.warns(UserWarning, match="explicit step bound")
                 if (name, key) == ("infer", "h") else contextlib.nullcontext())
        with warns:
            changed = EXPERIMENTS[name](apply_overrides(
                replace(config, out_dir=tmp_path / key), {key: other}))
        if not set(csv_digests(changed).items()) - set(baseline.items()):
            unread.append(key)
    assert unread == []


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_run_meta_replays_the_config(tmp_path, name):
    config, result = golden_run(name, tmp_path / "run")
    recorded = read_config_file(result.paths[-1])
    # every config key is recorded; a run without a sweep has none to record
    assert set(CONFIG_KEYS) - set(recorded) == ({"sweep"} if config.sweep is None else set())
    replay = apply_overrides(default_config(name), recorded)
    assert replay == config
    # the file alone replays the run: the same CSVs in a fresh directory
    again = EXPERIMENTS[name](replace(replay, out_dir=tmp_path / "replay"))
    assert csv_digests(again) == csv_digests(result)


@pytest.mark.parametrize("name", sorted(set(GOLDEN_RUNS) - {"certify"})
                         + ["complexity", "efficiency_L1153"])
def test_experiment_opens_each_stream_once(monkeypatch, tmp_path, name):
    # the ad hoc stream ids of the roles (data, initial state, chains, sweep
    # points) must not alias within a run: a repeated (seed, stream_id)
    # would hand two roles the same draws.  certify draws nothing.
    # efficiency_L1153 is the longest sweep over the default six h rows:
    # 190 lengths; its 2,280 chains open their streams but do not run.
    opened = []
    init = RandomStream.__init__

    def record(self, seed, stream_id=0):
        opened.append((seed, stream_id))
        init(self, seed, stream_id)

    monkeypatch.setattr(RandomStream, "__init__", record)
    if name == "complexity":
        exp_complexity(small_config("complexity", tmp_path, sweep="5 8"))
    elif name == "efficiency_L1153":
        monkeypatch.setattr("fcshmc.harness.run_chain",
                            lambda *args: SimpleNamespace(accept_rate=1.0))
        exp_efficiency(small_config("efficiency", tmp_path, L=1153))
    else:
        golden_run(name, tmp_path)
    assert opened
    assert len(set(opened)) == len(opened), sorted(opened)


# -- command line ------------------------------------------------------------


def test_cli_usage_errors(tmp_path, capsys):
    assert main([]) == EXIT_USAGE
    assert main(["warp"]) == EXIT_USAGE
    assert main(["certify", "--h", "abc"]) == EXIT_USAGE
    assert main(["infer", "--mass", "2"]) == EXIT_USAGE  # momenta have unit mass
    capsys.readouterr()


def test_cli_certify_reports(tmp_path, capsys):
    assert main(["certify", "--out", str(tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "h_max" in out
    assert "wrote" in out
    assert any(tmp_path.glob("certify_*.csv"))


def test_cli_certify_reports_the_run_params_bound(tmp_path, capsys):
    # the bound is computed from the run's K = 100, not the default K = 20
    assert main(["certify", "--K", "100", "--out", str(tmp_path)]) == EXIT_OK
    report = capsys.readouterr()
    assert report.err == ""
    assert "h_bound = 0.0352332 (prior" in report.out
    assert "0.0526235" not in report.out


@pytest.mark.parametrize("args, verdict", [
    (["--h", "0.1"], "UNSTABLE"),  # under h_max = 0.134, past the prior's bound 0.0526
    ([], "stable"),  # the default h = 0.05
    (["--theta", "0", "--h", "5"], "stable"),  # no prior weight, no prior edge
])
def test_cli_certify_judges_the_step_by_the_verlet_bound(tmp_path, capsys, args, verdict):
    # explicit prior steps at h = 0.1 blow up (acceptance check 5), so the
    # verdict follows verlet_step_bound at weight theta, not the certificate
    assert main(["certify", *args, "--out", str(tmp_path)]) == EXIT_OK
    assert f" -> {verdict}\n" in capsys.readouterr().out
    (path,) = tmp_path.glob("certify_*.csv")
    _, rows = read_rows(path)
    assert rows[0][3] == str(int(verdict == "stable"))


def test_cli_simulate_seed_determinism(tmp_path, capsys):
    for sub in ("a", "b"):
        assert main(["simulate", "--seed", "7", "--N", "3", "--K", "2",
                     "--out", str(tmp_path / sub)]) == EXIT_OK
    capsys.readouterr()
    a, = (tmp_path / "a").glob("simulate_counts_*.csv")
    b, = (tmp_path / "b").glob("simulate_counts_*.csv")
    assert a.read_text() == b.read_text()


def test_cli_config_file_layering(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("N = 2\nK = 2\nL = 5\nsweep = 0.02\n")
    assert main(["stability", "--config", str(cfg), "--out", str(tmp_path),
                 "--L", "3"]) == EXIT_OK
    capsys.readouterr()
    path, = tmp_path.glob("stability_*.csv")
    _, rows = read_rows(path)
    assert len(rows) == 4  # CLI flag L=3 overrides the file's L=5


def test_cli_replays_run_meta(tmp_path, capsys):
    assert main(["infer", "--N", "2", "--K", "2", "--updates", "5",
                 "--out", str(tmp_path / "a")]) == EXIT_OK
    meta, = (tmp_path / "a").glob("run_meta_*.txt")
    assert main(["infer", "--config", str(meta), "--out", str(tmp_path / "b")]) == EXIT_OK
    capsys.readouterr()
    for first in (tmp_path / "a").glob("*.csv"):
        again, = (tmp_path / "b").glob(first.name.rsplit("_", 1)[0] + "_*.csv")
        assert first.read_bytes() == again.read_bytes()


def test_cli_replays_run_meta_with_hash_in_out_dir(tmp_path, capsys, monkeypatch):
    # run_meta writes 'out = o#1'; the replay must read the '#' as part of
    # the value and write into o#1/, not into o/
    monkeypatch.chdir(tmp_path)
    assert main(["certify", "--out", "o#1"]) == EXIT_OK
    meta, = Path("o#1").glob("run_meta_*.txt")
    assert "out = o#1\n" in meta.read_text()
    assert main(["certify", "--config", str(meta)]) == EXIT_OK
    capsys.readouterr()
    assert len(list(Path("o#1").glob("run_meta_*.txt"))) == 2
    assert not Path("o").exists()


@pytest.mark.parametrize("out", ["o #1", "#x", "o1 ", " o1"])
def test_cli_refuses_out_that_config_files_cut(tmp_path, capsys, monkeypatch, out):
    # a '#' at the start or after whitespace would start a comment in the
    # run_meta replay, and surrounding whitespace would be stripped, so the
    # run is refused before any file is written
    monkeypatch.chdir(tmp_path)
    assert main(["certify", "--out", out]) == EXIT_SETUP
    assert "out" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(ValueError, match="comment"):
        ExperimentConfig(out_dir=out)


def test_cli_refused_infer_names_the_run_step_and_writes_nothing(tmp_path, capsys):
    # at h = 1e9 the split chain's midpoint matrix at h/2 is refused before
    # any chain runs: the message names the run's step, and nothing is
    # written
    out = tmp_path / "X"
    with pytest.warns(UserWarning, match="explicit step bound") as record:
        code = main(["infer", "--N", "2", "--K", "2", "--updates", "1", "--h", "1e9",
                     "--out", str(out)])
    assert code == EXIT_SETUP
    assert [w for w in record if issubclass(w.category, RuntimeWarning)] == []
    assert "1e+09" in capsys.readouterr().err
    assert not out.exists()


def test_cli_bad_inputs_route_to_exit_codes(tmp_path, capsys):
    missing = tmp_path / "absent.cfg"
    assert main(["certify", "--config", str(missing)]) == EXIT_IO
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("tau_exmo = 1\n")
    assert main(["certify", "--config", str(unknown),
                 "--out", str(tmp_path)]) == EXIT_USAGE
    assert main(["simulate", "--D", "-5", "--out", str(tmp_path)]) == EXIT_SETUP
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("")
    assert main(["certify", "--out", str(blocker)]) == EXIT_IO
    capsys.readouterr()
    # a value that does not parse is a usage error, from a file or a flag,
    # with one message that names the key
    bad_h = tmp_path / "bad_h.cfg"
    bad_h.write_text("h = abc\n")
    assert main(["certify", "--config", str(bad_h), "--out", str(tmp_path)]) == EXIT_USAGE
    from_file = capsys.readouterr().err
    assert from_file.startswith("fcshmc: h: ")
    assert main(["certify", "--h", "abc", "--out", str(tmp_path)]) == EXIT_USAGE
    assert capsys.readouterr().err == from_file
    bad_seed = tmp_path / "bad_seed.cfg"
    bad_seed.write_text("seed = 2.5\n")
    assert main(["certify", "--config", str(bad_seed), "--out", str(tmp_path)]) == EXIT_USAGE
    assert "seed" in capsys.readouterr().err
    malformed = tmp_path / "malformed.cfg"
    malformed.write_text("D 250\n")
    assert main(["certify", "--config", str(malformed), "--out", str(tmp_path)]) == EXIT_USAGE
    out = tmp_path / "out"
    assert main(["stability", "--sweep", "", "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()
    assert main(["certify", "--help"]) == EXIT_OK
    capsys.readouterr()
