"""Posterior energies, gradients, and spectral bounds for trajectory inference.

The target density over the flat trajectory q (anchored at q_0 = 0) is

    P(q | w)  propto  exp(-V_like(q) - V_prior(q))

with the Poisson window likelihood V_like = sum_n [u_n - w_n log u_n]
(constant log w_n! terms dropped) and the pinned random-walk prior

    V_prior = sum_links (q_right - q_left)^2 / (4 D tau_link).

The prior gradient is -(1/2D) Lap q where Lap is the two-scale discrete
Laplacian over the mesh (couplings 1/tau_dead on dead links, 1/tau_sub on
submesh links).  Sampling augments q with momenta p and splits the kinetic
energy with a weight theta:

    H = V_like + (1-theta) p.p/2m  +  V_prior + theta p.p/2m

so the two sub-Hamiltonians H_like, H_prior can be integrated by different
schemes.  ``hamiltonian`` is computed as the sum of the two subsystem
energies, making H == H_like + H_prior an exact identity, not just an
algebraic one.

Energy and gradient kernels are plain loops for the same reason as in
``tridiag``: per-call cost must scale with the trajectory length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .model import ExperimentParams, time_mesh
from .tridiag import TridiagonalOperator

__all__ = [
    "Scheme",
    "HmcParams",
    "PosteriorProblem",
    "CflCertificate",
    "build_laplacian",
    "dead_time_coupling",
    "exposure_coupling",
    "v_prior",
    "grad_v_prior",
    "v_like",
    "grad_v_like",
    "grad_v",
    "hamiltonian",
    "hamiltonian_like",
    "hamiltonian_prior",
    "exposure_block_eigenvalues",
    "max_eigenvalue_bound",
    "cfl_certificate",
]


class Scheme(str, Enum):
    """Integrator used for HMC proposals.

    SVEX: fully explicit Stormer-Verlet on the complete Hamiltonian.
    IMEX: Strang split; explicit SV on the likelihood subsystem, implicit
    midpoint on the (linear, stiff) prior subsystem.
    """

    SVEX = "svex"
    IMEX = "imex"


@dataclass(frozen=True)
class HmcParams:
    """Sampler configuration.

    theta splits the kinetic energy between the prior subsystem (weight
    theta) and the likelihood subsystem (weight 1-theta); mass is the
    momentum scale; h and L are the integrator step size and count per
    proposal; updates is the chain length J.
    """

    theta: float = 0.5
    mass: float = 1.0
    h: float = 0.05
    L: int = 20
    scheme: Scheme = Scheme.IMEX
    updates: int = 100
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")
        if self.mass <= 0:
            raise ValueError("mass must be > 0")
        if self.h <= 0:
            raise ValueError("h must be > 0")
        if self.L < 1:
            raise ValueError("L must be >= 1")
        if self.updates < 0:
            raise ValueError("updates must be >= 0")
        object.__setattr__(self, "scheme", Scheme(self.scheme))


def build_laplacian(params: ExperimentParams) -> TridiagonalOperator:
    """Two-scale discrete Laplacian on the flat mesh (M x M, symmetric).

    Off-diagonal j is the coupling 1/tau of the link between nodes j and
    j+1; each diagonal entry is minus the sum of its adjacent couplings, so
    every row sums to zero and -Lap is positive semidefinite.
    """
    m = params.node_count
    off = np.full(m - 1, 1.0 / params.tau_sub)
    off[0 :: params.K + 1] = 1.0 / params.tau_dead
    diag = np.empty(m)
    diag[0] = -off[0]
    diag[-1] = -off[-1]
    diag[1:-1] = -(off[:-1] + off[1:])
    return TridiagonalOperator(sub=off, diag=diag, sup=off)


def dead_time_coupling(params: ExperimentParams) -> TridiagonalOperator:
    """Unit-coupling graph Laplacian of the dead links alone."""
    m = params.node_count
    off = np.zeros(m - 1)
    dead = np.arange(0, m - 1, params.K + 1)
    off[dead] = 1.0
    diag = np.zeros(m)
    np.add.at(diag, dead, -1.0)
    np.add.at(diag, dead + 1, -1.0)
    return TridiagonalOperator(sub=off, diag=diag, sup=off)


def exposure_coupling(params: ExperimentParams) -> TridiagonalOperator:
    """Unit-coupling Laplacian of the submesh links: one Neumann block per
    window, a zero row/column at the anchor node."""
    m = params.node_count
    off = np.zeros(m - 1)
    diag = np.zeros(m)
    for n in range(params.N):
        base = 1 + n * (params.K + 1)  # first node of window n+1
        sub_links = np.arange(base, base + params.K)
        off[sub_links] = 1.0
        np.add.at(diag, sub_links, -1.0)
        np.add.at(diag, sub_links + 1, -1.0)
    return TridiagonalOperator(sub=off, diag=diag, sup=off)


@dataclass
class PosteriorProblem:
    """One inference target: parameters, counts, and precomputed structure.

    counts=None drops the likelihood (prior-only target); prior_enabled=False
    additionally drops the prior, leaving a flat potential (test harness use).
    The physical fields are treated as immutable after construction.
    """

    params: ExperimentParams
    counts: np.ndarray | None = None
    prior_enabled: bool = True
    laplacian: TridiagonalOperator = field(init=False, repr=False)
    active_laplacian: TridiagonalOperator = field(init=False, repr=False)
    _cache: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        p = self.params
        if p.D <= 0:
            raise ValueError("inference requires D > 0 (prior is degenerate otherwise)")
        if self.counts is not None:
            w = np.asarray(self.counts)
            if w.shape != (p.N,):
                raise ValueError(f"counts must have shape ({p.N},), got {w.shape}")
            if np.any(w < 0) or not np.all(w == np.floor(w)):
                raise ValueError("counts must be nonnegative integers")
            self.counts = w.astype(np.int64)
        self.laplacian = build_laplacian(p)
        # Row/column 0 removed: q_0 is pinned at zero and is not a sampling
        # degree of freedom, so implicit solves act on the remaining M-1.
        self.active_laplacian = TridiagonalOperator(
            sub=self.laplacian.sub[1:],
            diag=self.laplacian.diag[1:],
            sup=self.laplacian.sup[1:],
        )
        # hot-loop caches (python lists: see module docstring)
        link = time_mesh(p).link_tau
        self._s = (1.0 / link).tolist()
        self._vp_coef = (1.0 / (4.0 * p.D * link)).tolist()
        self._inv2d = 1.0 / (2.0 * p.D)
        self._inv2w = 1.0 / (2.0 * p.omega)
        self._dIdx = p.I_ref / p.omega  # |dI/dx| prefactor
        self._w = None if self.counts is None else [float(x) for x in self.counts]

    @property
    def node_count(self) -> int:
        return self.params.node_count


# -- energies ---------------------------------------------------------------


def v_prior(q: np.ndarray, problem: PosteriorProblem) -> float:
    """Random-walk prior energy sum (dq)^2 / (4 D tau) over all links."""
    if not problem.prior_enabled:
        return 0.0
    x = np.asarray(q, dtype=float).tolist()
    coef = problem._vp_coef
    acc = 0.0
    for j in range(len(coef)):
        d = x[j + 1] - x[j]
        acc += coef[j] * d * d
    return acc


def v_like(q: np.ndarray, problem: PosteriorProblem) -> float:
    """Poisson window energy sum_n [u_n - w_n log u_n] (w=None: 0)."""
    if problem._w is None:
        return 0.0
    p = problem.params
    x = np.asarray(q, dtype=float).tolist()
    inv2w, i_bg, i_ref = problem._inv2w, p.I_bg, p.I_ref
    tau, kk = p.tau_sub, p.K
    w = problem._w
    acc = 0.0
    for n in range(p.N):
        base = 1 + n * (kk + 1)
        xv = x[base]
        s = 0.5 * (i_bg + i_ref * math.exp(-xv * xv * inv2w))
        for j in range(base + 1, base + kk):
            xv = x[j]
            s += i_bg + i_ref * math.exp(-xv * xv * inv2w)
        xv = x[base + kk]
        s += 0.5 * (i_bg + i_ref * math.exp(-xv * xv * inv2w))
        u = tau * s
        acc += u - w[n] * math.log(u)
    return acc


# -- gradients --------------------------------------------------------------


def grad_v_prior(q: np.ndarray, problem: PosteriorProblem) -> np.ndarray:
    """d V_prior / d q = -(1/2D) Lap q, assembled link-wise."""
    x = np.asarray(q, dtype=float)
    m = problem.node_count
    if x.shape != (m,):
        raise ValueError(f"trajectory must have shape ({m},), got {x.shape}")
    if not problem.prior_enabled:
        return np.zeros(m)
    xs = x.tolist()
    s = problem._s
    c = problem._inv2d
    g = [0.0] * m
    g[0] = c * s[0] * (xs[0] - xs[1])
    for j in range(1, m - 1):
        g[j] = c * (s[j - 1] * (xs[j] - xs[j - 1]) + s[j] * (xs[j] - xs[j + 1]))
    g[m - 1] = c * s[m - 2] * (xs[m - 1] - xs[m - 2])
    return np.array(g)


def grad_v_like(q: np.ndarray, problem: PosteriorProblem) -> np.ndarray:
    """d V_like / d q; zero at the anchor node (no quadrature weight there)."""
    x = np.asarray(q, dtype=float)
    m = problem.node_count
    if x.shape != (m,):
        raise ValueError(f"trajectory must have shape ({m},), got {x.shape}")
    if problem._w is None:
        return np.zeros(m)
    p = problem.params
    xs = x.tolist()
    inv2w, i_bg, i_ref, didx = problem._inv2w, p.I_bg, p.I_ref, problem._dIdx
    tau, kk = p.tau_sub, p.K
    w = problem._w
    g = [0.0] * m
    for n in range(p.N):
        base = 1 + n * (kk + 1)
        prof = [math.exp(-xs[j] * xs[j] * inv2w) for j in range(base, base + kk + 1)]
        s = 0.5 * (prof[0] + prof[kk]) + sum(prof[1:kk])
        u = tau * (kk * i_bg + i_ref * s)
        f = (1.0 - w[n] / u) * tau
        for k in range(kk + 1):
            c = 0.5 if (k == 0 or k == kk) else 1.0
            j = base + k
            g[j] += -f * c * didx * xs[j] * prof[k]
    return np.array(g)


def grad_v(q: np.ndarray, problem: PosteriorProblem) -> np.ndarray:
    """Gradient of the full potential V_like + V_prior."""
    return grad_v_prior(q, problem) + grad_v_like(q, problem)


# -- Hamiltonians -----------------------------------------------------------


def _kinetic(p: np.ndarray, mass: float) -> float:
    p = np.asarray(p, dtype=float)
    return 0.5 * float(np.dot(p, p)) / mass


def hamiltonian_like(q, p, problem: PosteriorProblem, hmc: HmcParams) -> float:
    """Likelihood subsystem energy V_like + (1-theta) p.p/2m."""
    return v_like(q, problem) + (1.0 - hmc.theta) * _kinetic(p, hmc.mass)


def hamiltonian_prior(q, p, problem: PosteriorProblem, hmc: HmcParams) -> float:
    """Prior subsystem energy V_prior + theta p.p/2m."""
    return v_prior(q, problem) + hmc.theta * _kinetic(p, hmc.mass)


def hamiltonian(q, p, problem: PosteriorProblem, hmc: HmcParams) -> float:
    """Total energy, computed as H_like + H_prior so the split is exact."""
    return hamiltonian_like(q, p, problem, hmc) + hamiltonian_prior(q, p, problem, hmc)


# -- spectra and the step-size certificate ----------------------------------


def exposure_block_eigenvalues(K: int) -> np.ndarray:
    """Eigenvalues of one (K+1)-node Neumann block of the submesh Laplacian:
    -4 sin^2(pi k / (2(K+1))), k = 0..K."""
    k = np.arange(K + 1)
    return -4.0 * np.sin(np.pi * k / (2.0 * (K + 1))) ** 2


def max_eigenvalue_bound(params: ExperimentParams) -> float:
    """Upper bound on the top eigenvalue of the prior gradient map
    (1/2D)(-Lap): 1/(D tau_dead) + 2/(D tau_sub), by Weyl's inequality
    applied to the dead-link / submesh splitting of Lap."""
    if params.D <= 0:
        raise ValueError("spectral bound requires D > 0")
    return 1.0 / (params.D * params.tau_dead) + 2.0 / (params.D * params.tau_sub)


@dataclass(frozen=True)
class CflCertificate:
    """Explicit-integrator step-size certificate for the prior subsystem.

    c approximates the fastest oscillator frequency of the theta-weighted
    prior subsystem as sqrt(theta / (m D tau_sub)); the Verlet stability
    interval then gives h_max = 2/c.  The frequency model keeps only the
    submesh coupling: when tau_sub > tau_dead the dead links oscillate
    faster than c and the certificate is optimistic (a
    TimescaleOrderingWarning is raised when such params are built).
    """

    c: float
    h_max: float
    h: float
    stable: bool


def cfl_certificate(params: ExperimentParams, hmc: HmcParams) -> CflCertificate:
    if params.D <= 0:
        raise ValueError("certificate requires D > 0")
    c = math.sqrt(hmc.theta / (hmc.mass * params.D * params.tau_sub))
    h_max = 2.0 / c if c > 0 else math.inf
    return CflCertificate(c=c, h_max=h_max, h=hmc.h, stable=hmc.h < h_max)
