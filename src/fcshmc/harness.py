"""Experiment drivers: simulation, inference, and the benchmark suite.

Each ``exp_*`` function takes only an :class:`ExperimentConfig`, runs one
experiment end to end, writes timestamped CSV files plus a ``run_meta`` text
file, and returns its numerical results so callers (tests, demo scripts)
need not re-parse the CSVs.  The shared runner (:func:`_experiment`) owns
the output directory and the files of a run, the stamp and the wall timer,
and registers the experiment in :data:`EXPERIMENTS` with its defaults, which
list only the config keys it reads.  An experiment that steps an HMC
scheme takes its proposal driver from ``sampler.proposal_driver``, and
one that compares the schemes runs each ``Scheme`` in definition order; a
scheme's one-step map is its driver at L = 1.  A sweep experiment builds
every point's records before its first point, so a bad point is refused
before any work.

Reproducibility: a single seed drives everything.  Substreams are derived
per role (data, inits, chains) and per sweep point with fixed stream ids, so
any experiment re-run with the same config and seed produces identical data
files; only wall-clock fields in run_meta differ.
"""

from __future__ import annotations

import csv
import functools
import math
import re
import subprocess
import time
import warnings
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import __version__
from .integrators import PhaseState, midpoint_systems, sv_prior_step
from .model import ExperimentParams, Simulation, _validate, sample_prior_trajectory, simulate
from .posterior import (
    CflCertificate,
    HmcParams,
    PosteriorProblem,
    Scheme,
    cfl_certificate,
    hamiltonian,
    hamiltonian_prior,
    verlet_step_bound,
)
from .rng import RandomStream
from .sampler import draw_momentum, proposal_driver, run_chain

__all__ = [
    "ExperimentConfig",
    "ConfigError",
    "CONFIG_KEYS",
    "default_config",
    "read_config_file",
    "apply_overrides",
    "primes_below",
    "fit_loglog_slope",
    "exp_simulate",
    "exp_infer",
    "exp_certify",
    "exp_surrogate",
    "exp_stability",
    "exp_efficiency",
    "exp_convergence",
    "exp_complexity",
    "EXPERIMENTS",
]

# substream roles (offsets into the seed's stream-id space)
_SID_DATA = 1
_SID_INIT_Q = 2
_SID_INIT_P = 3
_SID_CHAIN = 100  # + sweep-point offset + scheme offset
_SID_SWEEP_DATA = 10_000  # + sweep-point offset

_REFERENCE_H = 1.0e-4  # convergence reference step, the finest sweep step allowed
_REPEATS = 3  # complexity timings are the best of this many runs


# where a config line's comment starts: '#' at the start or after whitespace
_COMMENT = re.compile(r"(?:^|\s)#")


class ConfigError(ValueError):
    """Config text that cannot be read: a malformed line, an unknown key, or
    a value its key's parser refuses."""


def sweep_list(value) -> list:
    """Comma- or space-separated numbers, or an already-parsed sequence;
    an empty sweep is refused."""
    values = ([float(tok) for tok in value.replace(",", " ").split()]
              if isinstance(value, str) else list(value))
    if not values:
        raise ValueError(f"sweep needs at least one value, got {value!r}")
    return values


@dataclass
class ExperimentConfig:
    """Bundle of everything one experiment run needs.

    Field metadata feeds :data:`CONFIG_KEYS`: ``key`` renames the config
    key, ``parse`` replaces the annotated type as the parser of text values.
    """

    params: ExperimentParams = field(default_factory=ExperimentParams)
    hmc: HmcParams = field(default_factory=HmcParams)
    out_dir: Path = field(default=Path("runs"), metadata={"key": "out"})
    thin: int = 10
    # h values, or K values for complexity
    sweep: list | None = field(default=None, metadata={"parse": sweep_list})
    updates_per_point: int = 200       # chain length per (h, L) efficiency point

    def __post_init__(self):
        self.out_dir = Path(self.out_dir)
        text = str(self.out_dir)
        if _COMMENT.split(text, maxsplit=1)[0].strip() != text:
            raise ValueError(f"out {text!r} would not survive a config file, which strips "
                             "values and cuts a comment at a '#' at the start or after "
                             "whitespace")
        if self.sweep is not None:
            self.sweep = sweep_list(self.sweep)
        _validate(self, positive=(), whole=dict(thin=1, updates_per_point=1))


def _config_keys() -> dict:
    """config key -> (ExperimentConfig section or None, field name, parser).

    Every experiment sets its chains' scheme itself, so scheme is no key.
    """
    table = {}
    for section, cls in (("params", ExperimentParams), ("hmc", HmcParams),
                         (None, ExperimentConfig)):
        hints = get_type_hints(cls)
        for f in fields(cls):
            if f.name not in ("params", "hmc", "scheme"):
                key = f.metadata.get("key", f.name)
                table[key] = (section, f.name, f.metadata.get("parse", hints[f.name]))
    return table


CONFIG_KEYS = _config_keys()

EXPERIMENTS: dict = {}  # name -> runner, in definition (and CLI) order


def default_config(experiment: str, seed: int = 0, out_dir="runs") -> ExperimentConfig:
    """Per-experiment default configuration (benchmark figures' settings)."""
    if experiment not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {experiment!r}")
    return apply_overrides(ExperimentConfig(out_dir=out_dir),
                           {"seed": seed, **EXPERIMENTS[experiment].defaults})


# -- flat key=value config files -------------------------------------------


def read_config_file(path) -> dict[str, str]:
    """Parse ``key = value`` lines, blanks ignored.  '#' starts a comment at
    the start of a line or after whitespace, so ``out = o#1`` keeps its '#';
    a key given twice is refused."""
    entries: dict[str, tuple[int, str]] = {}  # key -> (line number, value)
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = _COMMENT.split(raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}: empty key or value")
        if key in entries:
            raise ConfigError(f"{path}:{lineno}: key {key!r} repeats line {entries[key][0]}")
        entries[key] = (lineno, value)
    return {key: value for key, (_, value) in entries.items()}


def apply_overrides(config: ExperimentConfig, mapping: dict) -> ExperimentConfig:
    """Return config with overrides applied; None values are skipped.

    Config files and CLI flags both pass their text here.  Text is parsed per
    key; an unknown key or text the key's parser refuses raises
    :class:`ConfigError` naming the key.  Typed values reach the records
    unchanged, whose checks raise ValueError (e.g. for 2.5 as an integer).
    """
    over: dict = {"params": {}, "hmc": {}, None: {}}
    for key, value in mapping.items():
        if value is None:
            continue
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        section, name, parse = CONFIG_KEYS[key]
        if isinstance(value, str):
            try:
                value = parse(value)
            except ValueError as err:
                raise ConfigError(f"{key}: {err}") from None
        over[section][name] = value
    config = replace(config, **over.pop(None))
    for section, changes in over.items():
        if changes:
            config = replace(config, **{section: replace(getattr(config, section), **changes)})
    return config


# -- output helpers ---------------------------------------------------------


def _timestamp() -> str:
    now = time.time()
    return time.strftime("%Y%m%d-%H%M%S", time.localtime(now)) + f"-{int(now * 1e6) % 1_000_000:06d}"


def _build_identifier() -> str:
    here = Path(__file__).resolve().parent
    try:
        rev = subprocess.run(
            ["git", "-C", str(here), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5,
        )
        if rev.returncode == 0:
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return f"v{__version__}"


def _write_csv(path: Path, header: list[str], rows) -> Path:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _write_run_meta(path: Path, config: ExperimentConfig, record: dict) -> Path:
    """The run's record as '# key = value' comments, then every set config
    key as 'key = value', so the file replays the run as a --config file."""
    with open(path, "w") as fh:
        for key, value in record.items():
            fh.write(f"# {key} = {value}\n")
        for key, (section, name, _) in CONFIG_KEYS.items():
            value = getattr(getattr(config, section) if section else config, name)
            if isinstance(value, list):
                value = " ".join(str(v) for v in value)
            if value is not None:
                fh.write(f"{key} = {value}\n")
    return path


def _experiment(result_type, **defaults):
    """Turn ``exp_<name>(config, write) -> (result fields, meta extras)``
    into the public ``exp_<name>(config) -> result_type``, registered as
    ``EXPERIMENTS[<name>]``.

    ``defaults``, the values of config keys the experiment reads, are kept
    as the runner's ``.defaults`` for :func:`default_config`.  The runner
    fills in the default sweep when the config has none, stamps and times
    the run, and passes the body ``write(header, rows, *tags)``, which
    queues ``<name>[_<tag>...]_<stamp>.csv``.  The body runs under one
    ``np.errstate(all="ignore")``, so a blown-up state gives inf and NaN
    silently, with one errstate entry per run and none per step.  Once the
    body returns, the runner creates the output directory and writes the
    queued CSVs, then run_meta, in ``paths`` order; a body that raises
    leaves nothing behind.
    """
    def wrap(body):
        experiment = body.__name__.removeprefix("exp_")

        @functools.wraps(body)
        def run(config: ExperimentConfig):
            t0 = time.perf_counter()
            if config.sweep is None:
                config = replace(config, sweep=defaults.get("sweep"))
            stamp = _timestamp()
            queued = []  # (file name, header, rows), rows as the body gave them

            def write(header: list[str], rows, *tags: str) -> None:
                queued.append(("_".join((experiment, *tags, stamp)) + ".csv", header, rows))

            with np.errstate(all="ignore"):
                found, extras = body(config, write)
            config.out_dir.mkdir(parents=True, exist_ok=True)
            paths = [_write_csv(config.out_dir / name, head, rows) for name, head, rows in queued]
            wall = f"{time.perf_counter() - t0:.3f}"
            record = {"experiment": experiment, "timestamp": stamp, "build": _build_identifier(),
                      "version": __version__, "wall_time_sec": wall, **extras}
            paths.append(_write_run_meta(config.out_dir / f"run_meta_{stamp}.txt", config, record))
            return result_type(**found, paths=paths)

        run.defaults = defaults
        EXPERIMENTS[experiment] = run
        return run

    return wrap


def primes_below(n: int) -> list[int]:
    """Primes < n by sieve (integration step counts for the efficiency sweep)."""
    if n <= 2:
        return []
    mask = np.ones(n, dtype=bool)
    mask[:2] = False
    for i in range(2, int(n ** 0.5) + 1):
        if mask[i]:
            mask[i * i :: i] = False
    return [int(i) for i in np.nonzero(mask)[0]]


def fit_loglog_slope(x, y) -> float:
    """Least-squares slope of log10(y) against log10(x), finite points only."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = np.isfinite(x) & np.isfinite(y) & (x > 0) & (y > 0)
    if keep.sum() < 2:
        return math.nan
    return float(np.polyfit(np.log10(x[keep]), np.log10(y[keep]), 1)[0])


# -- experiments ------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SimulateResult:
    simulation: Simulation
    paths: list


def _write_data(write, sim: Simulation, params: ExperimentParams, trajectory_tag: str) -> None:
    """The counts CSV and the latent-trajectory CSV of one data set."""
    mesh = sim.mesh
    window_end = mesh.times[(params.K + 1) * np.arange(1, params.N + 1)]
    write(["n", "t_n", "u_n", "w_n"],
          zip(range(1, params.N + 1), window_end, sim.signal, sim.counts), "counts")
    write(["node_index", "time_sec", "q_um"],
          zip(range(params.node_count), mesh.times, sim.trajectory), trajectory_tag)


@_experiment(SimulateResult)
def exp_simulate(config: ExperimentConfig, write):
    """Draw one synthetic data set and write counts plus latent trajectory."""
    sim = simulate(RandomStream(config.hmc.seed, _SID_DATA), config.params)
    _write_data(write, sim, config.params, "trajectory")
    return dict(simulation=sim), {}


@dataclass(frozen=True, eq=False)
class InferResult:
    simulation: Simulation
    chains: dict
    paths: list


@_experiment(InferResult, h=0.03, L=15, updates=2000)
def exp_infer(config: ExperimentConfig, write):
    """Simulate one data set, then sample its posterior with both schemes.

    Chains start at the ground-truth trajectory (no burn-in analysis here;
    the point of the experiment is posterior spread, not convergence from a
    cold start).  If h is at or above the explicit chain's Verlet bound
    (``verlet_step_bound`` at kinetic weight 1) the run warns and proceeds;
    expect rejections.
    """
    p, h = config.params, config.hmc
    sim = simulate(RandomStream(h.seed, _SID_DATA), p)
    problem = PosteriorProblem(p, counts=sim.counts)
    truth = sim.trajectory
    _write_data(write, sim, p, "truth")
    h_bound = verlet_step_bound(p, 1.0)
    if h.h >= h_bound:
        warnings.warn(f"h = {h.h} is at or above the explicit step bound {h_bound:.4g}; "
                      "explicit chain may reject almost everything", stacklevel=3)
    # the split chain's midpoint systems, built (or refused) before any chain
    # runs; the chain finds them in the problem's cache
    midpoint_systems(problem, h)
    chains: dict = {}
    for offset, scheme in enumerate(Scheme):
        hmc = replace(h, scheme=scheme)
        chain = run_chain(truth, problem, hmc, RandomStream(h.seed, _SID_CHAIN + offset))
        chains[scheme.value] = chain
        write(["step", "accepted", "H_before", "H_after"],
              zip(range(1, hmc.updates + 1), chain.accepted.astype(int),
                  chain.h_before, chain.h_after),
              "chain", scheme.value)
        kept = zip(range(0, hmc.updates + 1, config.thin), chain.samples[::config.thin])
        write(["step", "node_index", "q_um"],  # read after the loop, so from kept, not chain
              ((s, i, q) for s, row in kept for i, q in enumerate(row)),
              "samples", scheme.value)
    return dict(simulation=sim, chains=chains), {"init": "ground_truth", "h_bound": h_bound}


@dataclass(frozen=True)
class CertifyResult:
    certificate: CflCertificate
    report: str
    paths: list


@_experiment(CertifyResult)
def exp_certify(config: ExperimentConfig, write):
    """Evaluate the explicit-scheme step certificate and Verlet bounds for this config.

    The requested step is judged stable below the prior subsystem's Verlet
    bound (weight theta), not below the certificate's h_max."""
    p, h = config.params, config.hmc
    cert = cfl_certificate(p, h)
    h_bound = verlet_step_bound(p, h.theta)
    stable = h.h < h_bound
    lines = [
        f"surrogate oscillator frequency c = {cert.c:.6g}",
        f"certified step bound h_max = 2/c = {cert.h_max:.6g}",
        f"Verlet step bound h_bound = {h_bound:.6g} (prior, weight "
        f"theta), {verlet_step_bound(p, 1.0):.6g} (explicit chain, weight 1)",
        f"requested step h = {h.h:.6g} -> {'stable' if stable else 'UNSTABLE'}",
    ]
    write(["c", "h_max", "h", "stable"], [(cert.c, cert.h_max, h.h, int(stable))])
    return dict(certificate=cert, report="\n".join(lines)), {}


@dataclass(frozen=True)
class SweepResult:
    rows: list
    paths: list


def _norm(x) -> float:
    """||x||_2 with np.linalg.norm's bits on a contiguous x, but without its
    overflow warning; a non-finite result counts as inf."""
    sq = float(np.vdot(x, x))
    return math.sqrt(sq) if math.isfinite(sq) else math.inf


def _max_q_norm(state: PhaseState, one_step, steps: int) -> float:
    """max over l = 0..steps of ||q_l||_2; non-finite states count as inf."""
    best = _norm(state.q)
    for _ in range(steps):
        state = one_step(state)
        best = max(best, _norm(state.q))
        if best == math.inf:
            return best
    return best


def _prior_draw(config: ExperimentConfig) -> PhaseState:
    """The shared (q0, p0) of the integrator sweeps: a prior trajectory and
    a momentum draw."""
    p, h0 = config.params, config.hmc
    q0 = sample_prior_trajectory(RandomStream(h0.seed, _SID_INIT_Q), p)
    p0 = draw_momentum(RandomStream(h0.seed, _SID_INIT_P), p.node_count)
    return PhaseState(q=q0, p=p0)


@_experiment(SweepResult, L=20,
             sweep=[round(x, 6) for x in np.geomspace(0.02, 0.2, 13)])
def exp_surrogate(config: ExperimentConfig, write):
    """Trajectory-bound sweep: b(h) = max step norm over an L-step run.

    Compares the full explicit integrator on the posterior against the
    explicit integrator of the prior subsystem alone, from one shared
    (q0, p0).  The h where b first explodes locates each scheme's stability
    edge; the prior subsystem is the cheap surrogate for the full map.
    """
    p, h0 = config.params, config.hmc
    hmcs = [replace(h0, h=float(h_val), L=1) for h_val in config.sweep]  # single steps
    sim = simulate(RandomStream(h0.seed, _SID_DATA), p)
    problem = PosteriorProblem(p, counts=sim.counts)
    init = _prior_draw(config)
    full_step = proposal_driver(Scheme.SVEX)
    rows = []
    for hmc in hmcs:
        b_full = _max_q_norm(init, lambda s: full_step(s, problem, hmc), h0.L)
        b_prior = _max_q_norm(init, lambda s: sv_prior_step(s, problem, hmc), h0.L)
        rows.append((hmc.h, b_full, b_prior))
    write(["h", "b_full", "b_prior"], rows)
    return dict(rows=rows), {}


@_experiment(SweepResult, L=100, sweep=[0.1, 0.2])
def exp_stability(config: ExperimentConfig, write):
    """Explicit integration of the prior subsystem at each sweep h.

    Writes the per-step phase point of one mid-mesh coordinate and the prior
    subsystem energy; bounded oscillation vs blow-up is visible directly in
    the energy column.
    """
    p, h0 = config.params, config.hmc
    hmcs = [replace(h0, h=float(h_val)) for h_val in config.sweep]
    problem = PosteriorProblem(p)  # prior-only target
    init = _prior_draw(config)
    coord = p.node_count // 2
    rows = []
    for hmc in hmcs:
        state = init
        for step in range(h0.L + 1):
            if step:
                state = sv_prior_step(state, problem, hmc)
            rows.append((hmc.h, step, step * hmc.h, state.q[coord],
                         state.p[coord], hamiltonian_prior(state.q, state.p, problem, hmc)))
    write(["h", "step", "eta", "q_coord", "p_coord", "H_prior"], rows)
    return dict(rows=rows), {"coordinate_index": coord, "target": "prior_only"}


@_experiment(SweepResult, L=100, sweep=[0.02, 0.04, 0.06, 0.08, 0.10, 0.12])
def exp_efficiency(config: ExperimentConfig, write):
    """Mean HMC acceptance rate AR(h) for both schemes.

    For each h, AR is averaged over chains of ``updates_per_point`` updates
    for every integration length that is a prime below ``L`` (primes dodge
    resonant L h cycles; 3 <= L <= 1153, as from 191 lengths on, row 5's
    chains would reuse row 0's data streams).  Each (h, L) point gets fresh
    synthetic data shared by the two schemes; chains start at the ground truth.
    """
    p, h0 = config.params, config.hmc
    lengths = primes_below(h0.L)
    if not 1 <= len(lengths) <= 190:
        raise ValueError(f"efficiency needs 3 <= L <= 1153, got L = {h0.L}")
    row_hmcs = [replace(h0, h=float(h_val), updates=config.updates_per_point)
                for h_val in config.sweep]
    rows = []
    for i, row_hmc in enumerate(row_hmcs):
        ars = {scheme: [] for scheme in Scheme}
        for j, l_val in enumerate(lengths):
            point = i * 1009 + j
            sim = simulate(RandomStream(h0.seed, _SID_SWEEP_DATA + point), p)
            problem = PosteriorProblem(p, counts=sim.counts)
            for offset, scheme in enumerate(Scheme):
                hmc = replace(row_hmc, L=l_val, scheme=scheme)
                chain = run_chain(sim.trajectory, problem, hmc,
                                  RandomStream(h0.seed, _SID_CHAIN + 2 * point + offset))
                ars[scheme].append(chain.accept_rate)
        rows.append((row_hmc.h, *(float(np.mean(ars[scheme])) for scheme in Scheme)))
    write(["h", *(f"AR_{scheme.value}" for scheme in Scheme)], rows)
    return dict(rows=rows), {"l_values": " ".join(str(v) for v in lengths),
                             "init": "ground_truth"}


def _integrate_recorded(init: PhaseState, problem: PosteriorProblem, hmc: HmcParams,
                        steps: int, track_energy: bool):
    """steps single steps of hmc.scheme (its driver at L = 1); optionally the
    max energy drift along the way.  Returns (terminal state, max |H_l - H_0|)."""
    one_step, hmc = proposal_driver(hmc.scheme), replace(hmc, L=1)
    state = init
    h_ref = hamiltonian(state.q, state.p, problem, hmc) if track_energy else 0.0
    drift = 0.0
    for _ in range(steps):
        state = one_step(state, problem, hmc)
        if track_energy:
            h_now = hamiltonian(state.q, state.p, problem, hmc)
            err = abs(h_now - h_ref)
            if not math.isfinite(err):
                return state, math.inf
            drift = max(drift, err)
    return state, drift


@_experiment(SweepResult, sweep=[
    1.0 / l for l in (100, 141, 200, 283, 400, 566, 800, 1131, 1600, 2263, 3200)])
def exp_convergence(config: ExperimentConfig, write):
    """Fixed-time self-convergence of both schemes.

    Integrates one shared (q0, p0) to time L h = 1 for each sweep h and
    compares terminal positions against the same scheme run at the
    reference step 1e-4 (``_REFERENCE_H``, recorded in run_meta as
    ``reference_h``); also records the worst energy drift along each run.
    A run takes round(1 / h) steps, so every sweep h must lie in
    1e-4 <= h < 2: no finer than the reference, and at least one step
    (round(0.5) is 0).  Blown-up runs are recorded as inf and excluded from
    slope fits.
    """
    p, h0 = config.params, config.hmc
    if not all(_REFERENCE_H <= h < 2.0 for h in config.sweep):
        raise ValueError(f"convergence needs {_REFERENCE_H:g} <= h < 2 for every sweep step, "
                         f"got {config.sweep}")
    l_ref, *sweep_steps = (round(1.0 / h) for h in (_REFERENCE_H, *config.sweep))
    sim = simulate(RandomStream(h0.seed, _SID_DATA), p)
    problem = PosteriorProblem(p, counts=sim.counts)
    init = _prior_draw(config)

    reference = {}
    for scheme in Scheme:
        hmc = replace(h0, h=_REFERENCE_H, scheme=scheme)
        terminal, _ = _integrate_recorded(init, problem, hmc, l_ref, False)
        reference[scheme] = terminal.q

    rows = []
    for h_val, steps in zip(config.sweep, sweep_steps):
        q_errs, h_errs = [], []
        for scheme in Scheme:
            hmc = replace(h0, h=float(h_val), scheme=scheme)
            terminal, drift = _integrate_recorded(init, problem, hmc, steps, True)
            q_errs.append(_norm(terminal.q - reference[scheme]))
            h_errs.append(drift)
        rows.append((float(h_val), *q_errs, *h_errs))
    columns = [f"{name}_{scheme.value}" for name in ("q_err", "H_err") for scheme in Scheme]
    write(["h", *columns], rows)
    return dict(rows=rows), {"reference_h": _REFERENCE_H, "steps": " ".join(map(str, sweep_steps))}


@_experiment(SweepResult, N=2, h=0.05, L=20, sweep=[10, 14, 20, 28, 40, 56, 79, 100])
def exp_complexity(config: ExperimentConfig, write):
    """Wall time of one L-step integration as the mesh is refined in K.

    Fresh data per K, shared by both schemes; each timing is the best of 3
    runs (``_REPEATS``, recorded in run_meta as ``repeats``) after one
    untimed warm-up (which also populates the midpoint operator cache, so
    setup cost is excluded).  Both schemes are expected to scale linearly in
    the trajectory length M = N(K+1)+1.
    """
    h0 = config.hmc
    if not all(float(k).is_integer() for k in config.sweep):
        raise ValueError(f"complexity sweeps whole K values, got {config.sweep}")
    point_params = [replace(config.params, K=int(k)) for k in config.sweep]
    rows = []
    for idx, params in enumerate(point_params):
        sim = simulate(RandomStream(h0.seed, _SID_SWEEP_DATA + idx), params)
        problem = PosteriorProblem(params, counts=sim.counts)
        p0 = draw_momentum(RandomStream(h0.seed, _SID_INIT_P + idx), params.node_count)
        init = PhaseState(q=sim.trajectory, p=p0)
        walls = []
        for scheme in Scheme:
            runner = proposal_driver(scheme)
            hmc = replace(h0, scheme=scheme)
            runner(init, problem, hmc)  # warm-up, untimed
            best = math.inf
            for _ in range(_REPEATS):
                tic = time.perf_counter()
                runner(init, problem, hmc)
                best = min(best, time.perf_counter() - tic)
            walls.append(best)
        rows.append((params.K, *walls))
    write(["K", *(f"wall_{scheme.value}_sec" for scheme in Scheme)], rows)
    ks, *walls = zip(*rows)
    slopes = {f"slope_{scheme.value}": fit_loglog_slope(ks, wall)
              for scheme, wall in zip(Scheme, walls)}
    return dict(rows=rows), {"timing": "integration only, operators prebuilt",
                             "repeats": _REPEATS, **slopes}
