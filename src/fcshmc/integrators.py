"""Symplectic one-step maps and L-step proposal integrators.

All maps act on (q, p) phase states over the flat mesh and leave the pinned
anchor slot untouched: q[0] stays at its input value (zero in sampling use)
and p[0] is never kicked or drifted, so the maps are symplectic on the 2(M-1)
dimensional active phase space.

Explicit maps are Stormer-Verlet (half kick, drift, half kick) against either
the full potential, the likelihood alone, or the prior alone; the drift
coefficient carries the kinetic split weight of the corresponding subsystem.
The prior subsystem is linear, so its implicit midpoint map reduces to two
tridiagonal solves with a fixed matrix; ``MidpointSystem`` holds the
prefabricated operators for one (problem, theta, mass, h), each a symmetric
``TridiagonalOperator`` with two bands (off-diagonal and diagonal).

The L-step drivers telescope adjacent half maps: SVEX merges the paired half
kicks of the full-potential leapfrog (L+1 gradient evaluations total), and
IMEX merges the paired half midpoint maps of the Strang composition into full
ones (L-1 interior full midpoint steps plus the two boundary halves).

Each map copies its input state once and returns the copies.  Verlet maps
scale each fresh gradient in place and make one temporary per drift; the
midpoint map adds its right-hand-side terms into the matvec results and makes
one temporary, its drift term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import posterior
from .posterior import HmcParams, PosteriorProblem
from .tridiag import TridiagonalOperator, thomas_solve, tridiag_matvec

__all__ = [
    "PhaseState",
    "MidpointSystem",
    "sv_full_step",
    "sv_likelihood_step",
    "sv_prior_step",
    "midpoint_prior_step",
    "imex_step",
    "imex_l_steps",
    "svex_l_steps",
]


@dataclass(frozen=True, slots=True)
class PhaseState:
    """Positions and momenta on the flat mesh (slot 0 is the pinned anchor)."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        if self.q.shape != self.p.shape:
            raise ValueError("q and p must have matching shapes")


def _sv_step(state, gradient, problem, h, drift_coeff):
    """Generic Verlet: half kick, drift, half kick; anchor slot frozen.

    ``gradient(q, problem)`` must return a fresh array: it is scaled in place.
    """
    q = state.q.copy()
    p = state.p.copy()
    qa, pa = q[1:], p[1:]
    kick, drift = 0.5 * h, h * drift_coeff
    g = gradient(q, problem)
    g *= kick
    pa -= g[1:]
    qa += drift * pa
    g = gradient(q, problem)
    g *= kick
    pa -= g[1:]
    return PhaseState(q=q, p=p)


def sv_full_step(state: PhaseState, problem: PosteriorProblem, hmc: HmcParams) -> PhaseState:
    """Verlet step for the complete Hamiltonian (kinetic weight 1/m)."""
    return _sv_step(state, posterior.grad_v, problem, hmc.h, 1.0 / hmc.mass)


def sv_likelihood_step(state: PhaseState, problem: PosteriorProblem, hmc: HmcParams) -> PhaseState:
    """Verlet step for the likelihood subsystem (kinetic weight (1-theta)/m)."""
    return _sv_step(
        state, posterior.grad_v_like, problem, hmc.h, (1.0 - hmc.theta) / hmc.mass
    )


def sv_prior_step(state: PhaseState, problem: PosteriorProblem, hmc: HmcParams) -> PhaseState:
    """Verlet step for the prior subsystem (kinetic weight theta/m)."""
    return _sv_step(state, posterior.grad_v_prior, problem, hmc.h, hmc.theta / hmc.mass)


@dataclass(frozen=True)
class MidpointSystem:
    """Precomputed operators of one implicit midpoint prior step of size h.

    With alpha = theta h^2 / (8 D m) and Lap the active (anchor-free)
    two-scale Laplacian, the step solves

        (I - alpha Lap) q1 = (I + alpha Lap) q0 + (theta h / m) p0
        (I - alpha Lap) p1 = (I + alpha Lap) p0 + (h / 2D) Lap q0

    which is algebraically the implicit midpoint rule for the linear prior
    flow.  The left-hand matrix is strictly diagonally dominant (margin 1),
    so the Thomas solver needs no pivoting.

    The three operators are built once per (problem, theta, mass, h) and
    cached on the problem.  Each operator converts its bands to Python lists
    on its first use, and ``lhs`` factors itself on its first solve (see
    ``tridiag``), so a step repeats neither: it runs three O(M) matvec loops
    and two O(M) substitution loops over its own vectors.  The loops stay
    Python so that a step's cost stays proportional to M.
    """

    h: float
    drift_coeff: float  # theta h / m
    lhs: TridiagonalOperator
    rhs_op: TridiagonalOperator
    scaled_lap: TridiagonalOperator

    @classmethod
    def build(cls, problem: PosteriorProblem, hmc: HmcParams, h: float) -> "MidpointSystem":
        lap = problem.active_laplacian
        alpha = hmc.theta * h * h / (8.0 * problem.params.D * hmc.mass)
        eye = np.ones(lap.size)
        lhs = TridiagonalOperator(off=-alpha * lap.off, diag=eye - alpha * lap.diag)
        off = np.abs(lhs.off)
        row_off = np.zeros(lap.size)
        row_off[1:] += off
        row_off[:-1] += off
        assert np.all(np.abs(lhs.diag) > row_off), "midpoint matrix lost diagonal dominance"
        rhs_op = TridiagonalOperator(off=alpha * lap.off, diag=eye + alpha * lap.diag)
        scale = h / (2.0 * problem.params.D)
        scaled_lap = TridiagonalOperator(off=scale * lap.off, diag=scale * lap.diag)
        return cls(h=h, drift_coeff=hmc.theta * h / hmc.mass, lhs=lhs, rhs_op=rhs_op,
                   scaled_lap=scaled_lap)


def _midpoint_system(problem: PosteriorProblem, hmc: HmcParams, h: float) -> MidpointSystem:
    key = ("midpoint", h, hmc.theta, hmc.mass)
    sys = problem._cache.get(key)
    if sys is None:
        sys = MidpointSystem.build(problem, hmc, h)
        problem._cache[key] = sys
    return sys


def midpoint_prior_step(state: PhaseState, system: MidpointSystem) -> PhaseState:
    """Implicit midpoint map of the prior subsystem; exactly preserves the
    prior energy of the active coordinates up to solver round-off."""
    qa = state.q[1:]
    pa = state.p[1:]
    rhs_q = tridiag_matvec(system.rhs_op, qa)
    rhs_q += system.drift_coeff * pa
    rhs_p = tridiag_matvec(system.rhs_op, pa)
    rhs_p += tridiag_matvec(system.scaled_lap, qa)
    q = state.q.copy()
    p = state.p.copy()
    q[1:] = thomas_solve(system.lhs, rhs_q)
    p[1:] = thomas_solve(system.lhs, rhs_p)
    return PhaseState(q=q, p=p)


def imex_step(state: PhaseState, problem: PosteriorProblem, hmc: HmcParams) -> PhaseState:
    """One Strang step: half midpoint (prior), full Verlet (likelihood),
    half midpoint (prior)."""
    half = _midpoint_system(problem, hmc, 0.5 * hmc.h)
    st = midpoint_prior_step(state, half)
    st = sv_likelihood_step(st, problem, hmc)
    return midpoint_prior_step(st, half)


def imex_l_steps(state: PhaseState, problem: PosteriorProblem, hmc: HmcParams) -> PhaseState:
    """L Strang steps with interior half midpoints merged into full ones.

    Runs exactly L likelihood Verlet steps, L-1 interior midpoint steps of
    size h, and two boundary midpoint steps of size h/2.  Merging the half
    maps changes each interior step by O(h^3) (the midpoint map is not a flow,
    so two half steps are not bitwise one full step) but keeps the same order
    of accuracy at half the implicit-solve cost.
    """
    half = _midpoint_system(problem, hmc, 0.5 * hmc.h)
    full = _midpoint_system(problem, hmc, hmc.h)
    st = midpoint_prior_step(state, half)
    st = sv_likelihood_step(st, problem, hmc)
    for _ in range(hmc.L - 1):
        st = midpoint_prior_step(st, full)
        st = sv_likelihood_step(st, problem, hmc)
    return midpoint_prior_step(st, half)


def svex_l_steps(state: PhaseState, problem: PosteriorProblem, hmc: HmcParams) -> PhaseState:
    """L leapfrog steps of the full Hamiltonian with merged half kicks
    (L+1 gradient evaluations)."""
    h, L = hmc.h, hmc.L
    kick, drift = 0.5 * h, h / hmc.mass
    q = state.q.copy()
    p = state.p.copy()
    qa, pa = q[1:], p[1:]
    g = posterior.grad_v(q, problem)
    pa -= kick * g[1:]
    for ell in range(1, L + 1):
        qa += drift * pa
        g = posterior.grad_v(q, problem)
        if ell < L:
            pa -= h * g[1:]
    pa -= kick * g[1:]
    return PhaseState(q=q, p=p)
