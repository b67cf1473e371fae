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

Two loops do all the stepping, each merging the adjacent half maps of
consecutive steps: ``_leapfrog`` Verlet's paired half kicks (steps + 1
gradient evaluations), ``_strang`` the Strang composition's paired half
midpoint maps (steps - 1 interior full midpoint steps and two boundary
halves).  A single step has nothing to merge, so each one-step map is its
loop at steps = 1.  Each wrapper passes its own drift coefficient (h times
the kinetic weight, but h / m for ``svex_l_steps``: the forms round apart at
some masses); the wrappers and ``_strang`` look up at call time the names
the benchmark traces.

``SCHEME_MAPS``, the one table of the HMC schemes, gives each ``Scheme`` its
L-step proposal driver and its one-step map; the experiments read both there.
``sampler.hmc_update`` names its drivers itself, at the names the benchmark
traces, so a new scheme is one row here and one branch there.

``_leapfrog`` and the midpoint map copy their input state once, update the
copies in place and return them, wrapped by ``_state``.

A step's fixed cost, the part that does not grow with M, is kept small: at
the small M of acceptance check 10 it is most of a step's time.  The step
coefficients that scale arrays are 0-d float64 arrays, because numpy
multiplies an array by one faster than by a Python float, which it converts
on every call; the bits are the same.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import posterior
from .posterior import HmcParams, PosteriorProblem, Scheme
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


@dataclass(frozen=True, slots=True, eq=False)
class PhaseState:
    """Positions and momenta on the flat mesh (slot 0 is the pinned anchor)."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        if self.q.shape != self.p.shape:
            raise ValueError("q and p must have matching shapes")


_set_q, _set_p = PhaseState.q.__set__, PhaseState.p.__set__


def _state(q: np.ndarray, p: np.ndarray) -> PhaseState:
    """``PhaseState(q, p)`` without the shape check, for same-shape copies;
    writes the two slots directly."""
    state = object.__new__(PhaseState)
    _set_q(state, q)
    _set_p(state, p)
    return state


def _leapfrog(state, gradient, problem, h, drift, steps):
    """``steps`` Verlet steps with merged half kicks (steps + 1 gradient
    evaluations); ``drift`` is h times the kinetic weight.  Anchor slot frozen.

    ``gradient(q, problem)`` must return a fresh array: it is scaled in place.
    """
    q = state.q.copy()
    p = state.p.copy()
    qa, pa = q[1:], p[1:]
    kick, step, drift = np.asarray(0.5 * h), np.asarray(h), np.asarray(drift)
    g = gradient(q, problem)
    g *= kick
    pa -= g[1:]
    for _ in range(steps - 1):
        qa += drift * pa
        g = gradient(q, problem)
        g *= step
        pa -= g[1:]
    qa += drift * pa
    g = gradient(q, problem)
    g *= kick
    pa -= g[1:]
    return _state(q, p)


def sv_full_step(state: PhaseState, problem: PosteriorProblem, hmc: HmcParams) -> PhaseState:
    """Verlet step for the complete Hamiltonian (kinetic weight 1/m)."""
    return _leapfrog(state, posterior.grad_v, problem, hmc.h, hmc.h * (1.0 / hmc.mass), 1)


def sv_likelihood_step(state: PhaseState, problem: PosteriorProblem, hmc: HmcParams) -> PhaseState:
    """Verlet step for the likelihood subsystem (kinetic weight (1-theta)/m)."""
    return _leapfrog(state, posterior.grad_v_like, problem, hmc.h,
                     hmc.h * ((1.0 - hmc.theta) / hmc.mass), 1)


def sv_prior_step(state: PhaseState, problem: PosteriorProblem, hmc: HmcParams) -> PhaseState:
    """Verlet step for the prior subsystem (kinetic weight theta/m)."""
    return _leapfrog(state, posterior.grad_v_prior, problem, hmc.h,
                     hmc.h * (hmc.theta / hmc.mass), 1)


@dataclass(frozen=True, eq=False)
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

    drift_coeff: np.ndarray  # theta h / m, 0-d
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
        return cls(drift_coeff=np.asarray(hmc.theta * h / hmc.mass), lhs=lhs, rhs_op=rhs_op,
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
    return _state(q, p)


def _strang(state, problem, hmc, steps):
    """``steps`` Strang steps with interior half midpoints merged into full
    ones; a single step neither builds nor caches the full-step system."""
    half = _midpoint_system(problem, hmc, 0.5 * hmc.h)
    full = _midpoint_system(problem, hmc, hmc.h) if steps > 1 else None
    st = midpoint_prior_step(state, half)
    st = sv_likelihood_step(st, problem, hmc)
    for _ in range(steps - 1):
        st = midpoint_prior_step(st, full)
        st = sv_likelihood_step(st, problem, hmc)
    return midpoint_prior_step(st, half)


def imex_step(state: PhaseState, problem: PosteriorProblem, hmc: HmcParams) -> PhaseState:
    """One Strang step: half midpoint (prior), full Verlet (likelihood),
    half midpoint (prior)."""
    return _strang(state, problem, hmc, 1)


def imex_l_steps(state: PhaseState, problem: PosteriorProblem, hmc: HmcParams) -> PhaseState:
    """L Strang steps with interior half midpoints merged into full ones.

    Runs exactly L likelihood Verlet steps, L-1 interior midpoint steps of
    size h, and two boundary midpoint steps of size h/2.  Merging the half
    maps changes each interior step by O(h^3) (the midpoint map is not a flow,
    so two half steps are not bitwise one full step) but keeps the same order
    of accuracy at half the implicit-solve cost.
    """
    return _strang(state, problem, hmc, hmc.L)


def svex_l_steps(state: PhaseState, problem: PosteriorProblem, hmc: HmcParams) -> PhaseState:
    """L leapfrog steps of the full Hamiltonian with merged half kicks
    (L+1 gradient evaluations)."""
    return _leapfrog(state, posterior.grad_v, problem, hmc.h, hmc.h / hmc.mass, hmc.L)


SCHEME_MAPS = {Scheme.SVEX: (svex_l_steps, sv_full_step), Scheme.IMEX: (imex_l_steps, imex_step)}
