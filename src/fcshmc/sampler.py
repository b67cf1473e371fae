"""Posterior sampling: HMC proposals plus sign-reflection Gibbs sweeps.

Each chain iteration is one HMC update (fresh momenta, L integrator steps,
Metropolis accept/reject on the total energy error) followed by one
reflection sweep.  The emission profile is even in position, so negating any
contiguous stretch of the trajectory that ends (head moves) or starts (tail
moves) at a mesh node leaves the likelihood exactly invariant; only the one
prior link straddling the stretch boundary changes energy.  The sweep
proposes such a negation at every interior node and accepts with the
localized prior ratio, letting chains hop between the sign-mirrored modes
that gradient-based proposals cannot cross.

Draw discipline: every update consumes exactly M-1 normals plus one uniform
for HMC, then one uniform for the head/tail choice and one per reflection
proposal, whether or not proposals are accepted, so runs are reproducible
from the seed alone.  The sweep takes its N*K proposal uniforms in one
batched draw, which is the same variate sequence as N*K scalar draws and
leaves the stream at the same position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .integrators import PhaseState, imex_l_steps, svex_l_steps
from .model import ExperimentParams
from .posterior import HmcParams, PosteriorProblem, Scheme, hamiltonian
from .rng import RandomStream

__all__ = [
    "Chain",
    "draw_momentum",
    "hmc_update",
    "proposal_driver",
    "reflect_head",
    "reflect_tail",
    "reflection_log_ratio",
    "reflection_update",
    "run_chain",
]


@dataclass(frozen=True, eq=False)
class Chain:
    """Sampler output: samples[0] is the initial state, one row per update."""

    samples: np.ndarray
    accepted: np.ndarray
    h_before: np.ndarray
    h_after: np.ndarray
    reflect_accepts: int

    @property
    def accept_rate(self) -> float:
        return float(self.accepted.mean()) if len(self.accepted) else math.nan


def draw_momentum(stream: RandomStream, node_count: int) -> np.ndarray:
    """Unit-mass momenta N(0, 1) on the active slots; anchor slot fixed at 0."""
    p = np.empty(node_count)
    p[0] = 0.0
    p[1:] = stream.standard_normals(node_count - 1)
    return p


def proposal_driver(scheme: Scheme):
    """The scheme's L-step proposal driver, the one scheme dispatch of the
    package.  It reads this module's names at call time, where the benchmark
    traces them."""
    return svex_l_steps if scheme is Scheme.SVEX else imex_l_steps


def hmc_update(
    q: np.ndarray, problem: PosteriorProblem, hmc: HmcParams, stream: RandomStream
) -> tuple[np.ndarray, bool, float, float]:
    """One Metropolis-corrected HMC proposal from q; returns
    (q, accepted, h_before, h_after), the total energies before and after
    the integrator run.  On rejection the returned q is the input object.

    A non-finite proposal energy (integrator blow-up) is treated as a
    certain rejection.  The uniform variate is drawn either way to keep the
    stream position independent of the outcome.
    """
    p = draw_momentum(stream, problem.node_count)
    h0 = hamiltonian(q, p, problem, hmc)
    prop = proposal_driver(hmc.scheme)(PhaseState(q=q, p=p), problem, hmc)
    h1 = hamiltonian(prop.q, prop.p, problem, hmc)
    u = stream.uniform()
    accepted = False
    if math.isfinite(h1):
        dh = h1 - h0
        accepted = dh <= 0.0 or u < math.exp(-dh)
    return (prop.q if accepted else q), accepted, h0, h1


def _flat_index(params: ExperimentParams, n: int, k: int) -> int:
    if not (1 <= n <= params.N and 1 <= k <= params.K):
        raise IndexError(f"window/node index ({n}, {k}) outside 1..{params.N} x 1..{params.K}")
    return (n - 1) * (params.K + 1) + k + 1


def reflect_head(q: np.ndarray, n: int, k: int, params: ExperimentParams) -> np.ndarray:
    """Negate all entries up to and including node (n, k); the anchor entry
    is left as +0.0 (negation would be a value-preserving no-op)."""
    pos = _flat_index(params, n, k)
    out = np.asarray(q, dtype=float).copy()
    out[1 : pos + 1] = -out[1 : pos + 1]
    return out


def reflect_tail(q: np.ndarray, n: int, k: int, params: ExperimentParams) -> np.ndarray:
    """Negate all entries strictly after node (n, k)."""
    pos = _flat_index(params, n, k)
    out = np.asarray(q, dtype=float).copy()
    out[pos + 1 :] = -out[pos + 1 :]
    return out


def reflection_log_ratio(q: np.ndarray, n: int, k: int, problem: PosteriorProblem) -> float:
    """Log posterior ratio log P(r(q)) - log P(q) for the reflection at (n, k).

    Head and tail reflections at the same node have identical ratios: the
    likelihood is even, every prior increment inside the flipped stretch
    keeps its magnitude, and only the link (pos, pos+1) straddling the
    boundary changes, by (q[pos] + q[pos+1])^2 - (q[pos+1] - q[pos])^2 =
    4 q[pos] q[pos+1] over 4 D tau.  At the final node the head move is a
    global negation and the tail move is the identity, so the ratio is 0.
    """
    pos = _flat_index(problem.params, n, k)
    if pos == problem.node_count - 1:
        return 0.0
    return -q[pos] * q[pos + 1] * (1.0 / problem.params.D) / problem._tau[pos]


@np.errstate(all="ignore")
def _sweep_log_ratios(q: np.ndarray, problem: PosteriorProblem) -> list:
    """``reflection_log_ratio`` of every proposal of a sweep, in mesh order,
    bit for bit: formed at every node pos = 1..M-1 with the scalar form's
    operations in its order, then the (N, K+1) window view drops each
    window's first node, which makes no proposal.  Non-finite states give
    inf and NaN silently, as scalar floats do."""
    p = problem.params
    log_r = np.negative(q[1:])
    log_r[:-1] *= q[2:]
    log_r *= 1.0 / p.D
    log_r[:-1] /= problem._tau[1:]
    log_r[-1] = 0.0  # the final node (see reflection_log_ratio)
    return log_r.reshape(p.N, p.K + 1)[:, 1:].ravel().tolist()


def reflection_update(q: np.ndarray, problem: PosteriorProblem, stream: RandomStream):
    """One reflection sweep, in place; returns (q, number of accepted flips).

    One head/tail direction is drawn per sweep, then one proposal is made at
    every node (n, k), k >= 1, in mesh order; all N*K proposal uniforms come
    from one batched draw.  Because the likelihood is exactly invariant and
    only one prior link straddles the flipped stretch, the log acceptance
    ratio localizes to -q[pos] q[pos+1] / (D tau_link)
    (``reflection_log_ratio``).

    Every decision is made from the pre-sweep state, which is exact: an
    earlier head flip leaves q[pos] and q[pos+1] alone, and an earlier tail
    flip negates both, so their product keeps every bit.  So the N*K ratios
    come from one numpy pass (``_sweep_log_ratios``); each decision
    log_r >= 0 or u < exp(log_r) stays a scalar test with ``math.exp``,
    which ``np.exp`` (1 ulp off on some inputs) would not reproduce.  A
    cumulative XOR over the accepted nodes then negates each entry once if
    an odd number of accepted flips cover it: for head moves, those at or
    after its node; for tail moves, those strictly before it.  The sweep is
    O(M), however many proposals are accepted, and gives the states of
    flipping node by node bit for bit, the sign of zero included.
    """
    p = problem.params
    head = stream.uniform() < 0.5
    us = stream.uniforms(p.N * p.K).tolist()
    exp = math.exp
    accept = np.fromiter([r >= 0.0 or u < exp(r) for r, u in zip(_sweep_log_ratios(q, problem), us)],
                         bool, p.N * p.K)
    odd = np.zeros(len(q), dtype=bool)
    odd[1:].reshape(p.N, p.K + 1)[:, 1:] = accept.reshape(p.N, p.K)
    if head:
        odd = np.logical_xor.accumulate(odd[::-1])[::-1]
    else:
        odd[1:] = np.logical_xor.accumulate(odd[:-1])
    odd[0] = False  # the anchor q[0] is never flipped
    np.negative(q, out=q, where=odd)
    return q, int(np.count_nonzero(accept))


@np.errstate(all="ignore")
def run_chain(
    init: np.ndarray, problem: PosteriorProblem, hmc: HmcParams, stream: RandomStream
) -> Chain:
    """Run hmc.updates iterations of (HMC update, reflection sweep) from init.

    init must be a finite full flat trajectory with init[0] == 0.  Rejected
    HMC proposals leave the trajectory bit-identical; the reflection sweep
    then acts on whatever state the update produced.  A blown-up proposal
    is rejected silently, under one errstate entry per chain, not per step.
    """
    init = np.asarray(init, dtype=float)
    m = problem.node_count
    if init.shape != (m,):
        raise ValueError(f"init must have shape ({m},), got {init.shape}")
    if init[0] != 0.0:
        raise ValueError("init[0] must be 0 (pinned anchor)")
    if not np.isfinite(init).all():
        raise ValueError("init must be finite")
    j = hmc.updates
    samples = np.empty((j + 1, m))
    accepted = np.empty(j, dtype=bool)
    h_before = np.empty(j)
    h_after = np.empty(j)
    reflect_accepts = 0
    q = init.copy()
    samples[0] = q
    for it in range(j):
        q, accepted[it], h_before[it], h_after[it] = hmc_update(q, problem, hmc, stream)
        q, n_acc = reflection_update(q, problem, stream)
        reflect_accepts += n_acc
        samples[it + 1] = q
    return Chain(
        samples=samples,
        accepted=accepted,
        h_before=h_before,
        h_after=h_after,
        reflect_accepts=reflect_accepts,
    )
