"""Sampler benchmark: HMC updates per second, wall time, set-up time and
memory of the ``infer`` and ``efficiency`` experiments, with a traced run
that times every layer of the package.

    python3 bench/run.py --workload infer-421 --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  A run sets up the workload several times, then repeats whole
rounds of the same experiment on the same seed-derived inputs until the
measured time reaches ``--seconds``, checks the first round's outputs and
that every later round repeats it bit for bit, and prints one JSON line:
end-to-end metrics with ``--trace 0``; with ``--trace 1`` one untraced and
one traced round, and the per-layer metrics of the traced one.  Reported
times are put on a fixed scale of host speed (``SpeedProbe``).  An
operation is one chain.  See bench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import warnings
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

import reference as ref
from ess import chain_ess
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
SETUP_REPEATS = 9
# Reported times are scaled to a host on which SpeedProbe's loop takes this
# long, about its time on the machine the benchmark was built on.
PROBE_SECONDS = 2.5e-4
SCHEMES = ("svex", "imex")

# experiment, config overrides (CLI key names), data stream id of the first
# simulated target (harness: 1 for infer, 10000 for the first sweep point)
WORKLOADS = {
    "infer-421": ("infer", dict(N=20, K=20, h=0.03, L=15, theta=0.5, updates=150), 1),
    "infer-10k": ("infer", dict(N=500, K=20, h=0.01, L=15, theta=0.5, updates=10), 1),
    "sweep-tiny": ("efficiency", dict(N=2, K=3, sweep="0.005,0.03,0.06",
                                      updates_per_point=20), 10_000),
}
# Only the split scheme's infer chains must accept a proposal: the explicit
# chain accepts none on some data sets at these step sizes (see README).
MUST_ACCEPT = ("imex",)


def set_up(workload: str, seed: int):
    """Import the package afresh and build the workload's first target.

    Returns (seconds, package module, experiment config)."""
    experiment, overrides, data_sid = WORKLOADS[workload]
    t0 = time.perf_counter()
    for name in [m for m in sys.modules if m == "fcshmc" or m.startswith("fcshmc.")]:
        del sys.modules[name]
    fc = importlib.import_module("fcshmc")
    config = fc.apply_overrides(
        fc.default_config(experiment, seed=seed, out_dir=OUT / workload), overrides)
    sim = fc.simulate(fc.RandomStream(seed, data_sid), config.params)
    fc.PosteriorProblem(config.params, counts=sim.counts)
    return time.perf_counter() - t0, fc, config


class SpeedProbe:
    """Tracks how fast the host runs Python right now.

    ``sample`` times a fixed pure-Python loop.  ``scale`` is PROBE_SECONDS
    over the median of the latest samples: multiplying a time measured now
    by it gives the time the same work takes when the loop takes
    PROBE_SECONDS.  The speed of shared hosts drifts by tens of percent over
    minutes (see README); the program's hot loops are Python too, so this
    takes that drift out of the reported times.
    """

    LOOPS = 4000
    EVERY_S = 0.02   # least gap between samples taken during a round
    RECENT = 5

    def __init__(self):
        self.samples = []
        self.last = -math.inf

    def sample(self):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(self.LOOPS):
            acc += i * 0.5
        self.last = time.perf_counter()
        self.samples.append(self.last - t0)

    def maybe_sample(self):
        if time.perf_counter() - self.last >= self.EVERY_S:
            self.sample()

    def scale(self) -> float:
        return PROBE_SECONDS / statistics.median(self.samples[-self.RECENT:])


class Round:
    """One call of the experiment.  Per chain it keeps the time of each
    update (HMC proposal plus reflection sweep), scaled by the speed probe
    taken just before it; the rest of the round's time is scaled by the
    median scale.  Only a kept round holds on to its chains, problems and
    result for the output checks."""

    def __init__(self, fc, workload, config, probe, tracer=None, keep=False):
        experiment = {"infer": fc.exp_infer, "efficiency": fc.exp_efficiency}[
            WORKLOADS[workload][0]]
        self.runs = []   # per chain: (scheme, Chain, problem, hmc)
        updates = []     # per chain: [start, end, scale] of each update
        hmc_update, run_chain = fc.sampler.hmc_update, fc.harness.run_chain

        def end_last_update():
            if updates[-1]:
                updates[-1][-1][1] = time.perf_counter()

        def timed_hmc_update(*args):
            end_last_update()
            probe.maybe_sample()
            updates[-1].append([time.perf_counter(), None, probe.scale()])
            return hmc_update(*args)

        def timed_run_chain(init, problem, hmc, stream):
            if tracer is not None:
                tracer.chain = len(self.runs)
            updates.append([])
            chain = run_chain(init, problem, hmc, stream)
            end_last_update()
            self.runs.append((hmc.scheme.value, chain, problem, hmc))
            return chain

        shutil.rmtree(config.out_dir, ignore_errors=True)
        probe.sample()
        probe_seconds = sum(probe.samples)
        fc.sampler.hmc_update, fc.harness.run_chain = timed_hmc_update, timed_run_chain
        try:
            t0 = time.perf_counter()
            self.result = experiment(config)
            self.raw_wall = time.perf_counter() - t0
        finally:
            fc.sampler.hmc_update, fc.harness.run_chain = hmc_update, run_chain
        self.schemes = [scheme for scheme, _, _, _ in self.runs]
        self.update_seconds = [np.array([(end - start) * scale for start, end, scale in chain])
                               for chain in updates]
        raw_updates = sum(end - start for chain in updates for start, end, _ in chain)
        scales = [scale for chain in updates for _, _, scale in chain] or [probe.scale()]
        outside = self.raw_wall - raw_updates - (sum(probe.samples) - probe_seconds)
        self.wall = sum(t.sum() for t in self.update_seconds) + outside * statistics.median(scales)
        h = hashlib.sha256()
        for _, chain, _, _ in self.runs:
            h.update(chain.samples.tobytes())
            h.update(chain.accepted.tobytes())
        self.digest = h.hexdigest()
        if not keep:
            self.runs = self.result = None

    def scheme_seconds(self, scheme):
        """(updates, scaled seconds) of the scheme's chains."""
        mine = [t for s, t in zip(self.schemes, self.update_seconds) if s == scheme]
        return sum(len(t) for t in mine), sum(t.sum() for t in mine)


# -- output checks ------------------------------------------------------------


def _rel(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


def check_chain(fc, chain, problem, hmc, deep, rng):
    """Failures found in one chain; ``deep`` adds the integrator checks."""
    bad = []
    s = chain.samples
    if not np.all(np.isfinite(s)):
        bad.append("non-finite sample")
    if np.any(s[:, 0] != 0.0):
        bad.append("anchor left 0")
    params, counts = problem.params, problem.counts
    q = s[-1]
    post = fc.posterior
    like, prior = ref.v_like(q, params, counts), ref.v_prior(q, params)
    # relative to the size of the two terms, which can cancel in the sum
    energy = post.v_like(q, problem) + post.v_prior(q, problem)
    if abs(energy - (like + prior)) > 1e-12 * (abs(like) + abs(prior)):
        bad.append("v_like + v_prior differs from the reference")
    want = ref.grad_v_like(q, params, counts) + ref.grad_v_prior(q, params)
    if _rel(post.grad_v(q, problem), want) > 1e-12:
        bad.append("grad_v differs from the reference")
    if not deep:
        return bad
    if hmc.scheme.value in MUST_ACCEPT and not chain.accepted.any():
        bad.append(f"{hmc.scheme.value} accepted no proposal")
    integ = fc.integrators
    p0 = math.sqrt(hmc.mass) * rng.standard_normal(len(q))
    p0[0] = 0.0
    step = integ.svex_l_steps if hmc.scheme.value == "svex" else integ.imex_l_steps
    fwd = step(integ.PhaseState(q=q, p=p0), problem, hmc)
    back = step(integ.PhaseState(q=fwd.q, p=-fwd.p), problem, hmc)
    if max(_rel(back.q, q), _rel(-back.p, p0)) > 1e-10:
        bad.append(f"{hmc.scheme.value}: L steps, flip, L steps does not return")
    v0 = ref.v_like(q, params, counts)
    pn, kn = params.N // 2 + 1, params.K // 2
    for flip in (fc.reflect_head, fc.reflect_tail):
        if ref.v_like(flip(q, pn, kn, params), params, counts) != v0:
            bad.append(f"{flip.__name__} changed the likelihood energy")
    mid = integ.midpoint_prior_step(integ.PhaseState(q=q, p=p0),
                                    integ.MidpointSystem.build(problem, hmc, hmc.h))
    e0 = ref.prior_subsystem_energy(q, p0, params, hmc.theta, hmc.mass)
    e1 = ref.prior_subsystem_energy(mid.q, mid.p, params, hmc.theta, hmc.mass)
    if _rel(e1, e0) > 1e-12:
        bad.append("midpoint_prior_step changed the prior-subsystem energy")
    return bad


def check_round(fc, workload, rnd, seed):
    rng = np.random.default_rng(seed)
    infer = WORKLOADS[workload][0] == "infer"
    bad = []
    for _, chain, problem, hmc in rnd.runs:
        bad += check_chain(fc, chain, problem, hmc, infer, rng)
    if infer:
        return bad
    rows = rnd.result.rows  # (h, AR_svex, AR_imex), in sweep order
    if not all(0.0 <= ar <= 1.0 for row in rows for ar in row[1:]):
        bad.append("acceptance rate outside [0, 1]")
    smallest = min(rows)
    if min(smallest[1:]) < 0.95:
        bad.append(f"acceptance at h = {smallest[0]} is {smallest[1:]}, not near 1")
    return bad


# -- metrics ------------------------------------------------------------------


def end_to_end(rounds, setups):
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(r.wall for r in rounds), "s"),
    }
    for scheme in SCHEMES:
        updates, seconds = map(sum, zip(*(r.scheme_seconds(scheme) for r in rounds)))
        metrics[f"{scheme}.updates_per_s"] = (updates / seconds, "1/s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    return metrics


def per_layer(plain, traced, layers, probe_samples):
    """``plain``: the untraced round, the time base of ESS per second;
    ``traced``: the same work under the tracer."""
    chains = [c for _, c, _, _ in traced.runs]
    updates = [len(c.accepted) for c in chains]

    def us_per_call(name):
        return layers[name]["total_ns"] / layers[name]["calls"] / 1e3

    def self_us(name):
        return layers[name]["self_ns"] / layers[name]["calls"] / 1e3

    def calls_per_update(name):
        return layers[name]["calls"] / sum(updates[i] for i in layers[name]["chains"])

    n_updates = sum(updates)
    ess_total = 0.0
    metrics = {}
    for scheme in SCHEMES:
        ess = sum(chain_ess(c.samples) for s, c, _, _ in plain.runs if s == scheme)
        seconds = plain.scheme_seconds(scheme)[1]
        ess_total += ess
        metrics[f"{scheme}.ess_per_s"] = (ess / seconds, "1/s")
    metrics.update({
        "rng.uniform.calls_per_update": (calls_per_update("rng.uniform"), "count"),
        "rng.uniform.us_per_call": (us_per_call("rng.uniform"), "us"),
        "rng.standard_normals.us_per_call": (us_per_call("rng.standard_normals"), "us"),
        "model.simulate.ms_per_call": (us_per_call("model.simulate") / 1e3, "ms"),
        "posterior.PosteriorProblem.ms_per_call":
            (us_per_call("posterior.PosteriorProblem") / 1e3, "ms"),
        "posterior.grad_v_like.us_per_call": (us_per_call("posterior.grad_v_like"), "us"),
        "posterior.grad_v_like.calls_per_update":
            (calls_per_update("posterior.grad_v_like"), "count"),
        "posterior.grad_v_prior.us_per_call": (us_per_call("posterior.grad_v_prior"), "us"),
        "posterior.v_like.us_per_call": (us_per_call("posterior.v_like"), "us"),
        "posterior.v_prior.us_per_call": (us_per_call("posterior.v_prior"), "us"),
        "posterior.hamiltonian.us_per_call": (us_per_call("posterior.hamiltonian"), "us"),
        "tridiag.thomas_solve.us_per_call": (us_per_call("tridiag.thomas_solve"), "us"),
        "tridiag.thomas_solve.calls_per_update":
            (calls_per_update("tridiag.thomas_solve"), "count"),
        "tridiag.tridiag_matvec.us_per_call": (us_per_call("tridiag.tridiag_matvec"), "us"),
        "tridiag.tridiag_matvec.calls_per_update":
            (calls_per_update("tridiag.tridiag_matvec"), "count"),
        "integrators.MidpointSystem.build.ms_per_call":
            (us_per_call("integrators.MidpointSystem.build") / 1e3, "ms"),
        "integrators.midpoint_prior_step.self_us":
            (self_us("integrators.midpoint_prior_step"), "us"),
        "integrators.sv_likelihood_step.self_us":
            (self_us("integrators.sv_likelihood_step"), "us"),
        "integrators.svex_l_steps.self_us": (self_us("integrators.svex_l_steps"), "us"),
        "integrators.imex_l_steps.self_us": (self_us("integrators.imex_l_steps"), "us"),
        "sampler.hmc_update.self_us": (self_us("sampler.hmc_update"), "us"),
        "sampler.reflection_update.us_per_call": (us_per_call("sampler.reflection_update"), "us"),
        "sampler.reflection_flips_per_update":
            (sum(c.reflect_accepts for c in chains) / n_updates, "count"),
        "sampler.accept_rate": (sum(int(c.accepted.sum()) for c in chains) / n_updates, "ratio"),
        "sampler.ess_per_update": (ess_total / n_updates, "count"),
        "sampler.grad_evals_per_ess":
            (layers["posterior.grad_v_like"]["calls"] / ess_total, "count"),
        "harness.csv_write.ms": (layers["harness.csv_write"]["total_ns"] / 1e6, "ms"),
        "trace.untraced_wall_s": (plain.wall, "s"),
        "trace.traced_wall_s": (traced.wall, "s"),
        "trace.overhead_ratio": (traced.wall / plain.wall, "ratio"),
        "host.probe_us": (statistics.median(probe_samples) * 1e6, "us"),
    })
    return metrics


def layer_targets(fc):
    """(owner, attribute, span name): each layer's public functions at the
    names their callers look them up by."""
    h, post, integ, smp = fc.harness, fc.posterior, fc.integrators, fc.sampler
    return [
        (fc.rng.RandomStream, "uniform", "rng.uniform"),
        (fc.rng.RandomStream, "standard_normals", "rng.standard_normals"),
        (h, "simulate", "model.simulate"),
        (h, "PosteriorProblem", "posterior.PosteriorProblem"),
        (post, "grad_v", "posterior.grad_v"),
        (post, "grad_v_like", "posterior.grad_v_like"),
        (post, "grad_v_prior", "posterior.grad_v_prior"),
        (post, "v_like", "posterior.v_like"),
        (post, "v_prior", "posterior.v_prior"),
        (smp, "hamiltonian", "posterior.hamiltonian"),
        (integ, "thomas_solve", "tridiag.thomas_solve"),
        (integ, "tridiag_matvec", "tridiag.tridiag_matvec"),
        (integ.MidpointSystem, "build", "integrators.MidpointSystem.build"),
        (integ, "midpoint_prior_step", "integrators.midpoint_prior_step"),
        (integ, "sv_likelihood_step", "integrators.sv_likelihood_step"),
        (smp, "svex_l_steps", "integrators.svex_l_steps"),
        (smp, "imex_l_steps", "integrators.imex_l_steps"),
        (smp, "draw_momentum", "sampler.draw_momentum"),
        (smp, "hmc_update", "sampler.hmc_update"),
        (smp, "reflection_update", "sampler.reflection_update"),
        (h, "run_chain", "sampler.run_chain"),
        (h, "_write_csv", "harness.csv_write"),
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "fcshmc" / "__init__.py").is_file():
        print(f"bench: no package source at {ROOT / 'src' / 'fcshmc'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    warnings.filterwarnings("ignore", message="tau_sub = tau_exp/K")

    probe = SpeedProbe()
    setups = []
    for _ in range(SETUP_REPEATS):
        for _ in range(SpeedProbe.RECENT):
            probe.sample()
        seconds, fc, config = set_up(args.workload, args.seed)
        setups.append(seconds * probe.scale())

    first = Round(fc, args.workload, config, probe, keep=True)
    failures = check_round(fc, args.workload, first, args.seed)
    rounds = [first]
    if args.trace:
        tracer = Tracer()
        for owner, attr, name in layer_targets(fc):
            tracer.patch(owner, attr, name)
        try:
            rounds.append(Round(fc, args.workload, config, probe, tracer, keep=True))
        finally:
            tracer.restore()
    else:
        while sum(r.raw_wall for r in rounds) < args.seconds:
            rounds.append(Round(fc, args.workload, config, probe))
    if any(r.digest != first.digest for r in rounds[1:]):
        failures.append("a repeated round did not reproduce the first bit for bit")
    shutil.rmtree(config.out_dir, ignore_errors=True)
    with contextlib.suppress(OSError):
        OUT.rmdir()

    if args.trace:
        metrics = per_layer(first, rounds[-1], tracer.layers(), probe.samples)
    else:
        metrics = end_to_end(rounds, setups)
    for failure in failures:
        print(f"bench: check failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(len(r.schemes) for r in rounds),
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
