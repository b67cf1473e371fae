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

    H = V_like + (1-theta) p.p/2  +  V_prior + theta p.p/2

so the two sub-Hamiltonians H_like, H_prior can be integrated by different
schemes.  Momenta have unit mass: a scalar mass m is the step h/sqrt(m),
since p = sqrt(m) p' maps every flow, map and energy at (m, h) onto those
at (1, h/sqrt(m)).  ``hamiltonian`` is computed as the sum of the two
subsystem energies, making H == H_like + H_prior an exact identity, not
just an algebraic one.

Kernels called inside the L-step drivers (``integrators.svex_l_steps`` and
``imex_l_steps``), that is both gradients, are plain loops for the same
reason as in ``tridiag``: acceptance check 10 times those drivers at small M,
where vectorised calls would cost mostly fixed dispatch.  Per-update kernels
are numpy: ``v_prior``, called twice per update through ``hamiltonian``,
sums its terms (c d) d left to right with ``np.add.accumulate``, the loop's
order (``np.sum``'s pairwise order would change the last bits), under
``np.errstate(all="ignore")``, so non-finite states give inf and NaN
silently, as scalar floats do.  ``v_like`` stays a loop: its bits need
``math.exp`` per node (``np.exp`` is 1 ulp off on some inputs), so a numpy
form saves only the window sums: it measured 2.1 -> 16.8 us per call at
M = 9 and 1.4 -> 1.1 ms at M = 10,501 on a 2-core x86 host.

The loops carry neighbours in locals: the prior gradient carries the left
coupling and the left and centre values into the next node, and both
likelihood kernels the first node of each window, with ``math.exp`` bound to
a local.  The likelihood gradient takes one ``math.exp`` pass over the mesh,
computes per window only the profile sum, the force and the two
quadrature-weighted coefficients (window ends and interior), and forms every
node's entry in one more pass.  Each gradient is built with one
``np.fromiter(list, _F64, m)`` (``_F64``: see ``tridiag``), a fresh array
that the integrators scale in place.  ``PosteriorProblem`` binds the
per-problem constants the kernels read once, at construction: node count, K,
tau_sub, K I_bg, I_ref, the prior couplings as a list and the link durations
and prior coefficients as read-only arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .model import ExperimentParams, _validate, time_mesh
from .tridiag import _F64, TridiagonalOperator, _shared_floats

__all__ = [
    "Scheme",
    "HmcParams",
    "PosteriorProblem",
    "CflCertificate",
    "build_laplacian",
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
    "verlet_step_bound",
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
    theta) and the likelihood subsystem (weight 1-theta); h and L are the
    integrator step size and count per proposal; updates is the chain
    length J.  Momenta have unit mass: ``mass`` is the constant 1.0, a
    class attribute that is neither a field nor a config key (a mass m is
    the step h/sqrt(m)).
    """

    mass = 1.0
    theta: float = 0.5
    h: float = 0.05
    L: int = 20
    scheme: Scheme = Scheme.IMEX
    updates: int = 100
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")
        _validate(self, positive=("h",), whole=dict(L=1, updates=0, seed=0))
        object.__setattr__(self, "scheme", Scheme(self.scheme))


def _path_laplacian(weights: np.ndarray) -> TridiagonalOperator:
    """Symmetric tridiagonal Laplacian of a path graph with M-1 link weights.

    The off-diagonals are the weights; each diagonal entry is minus the sum
    of its adjacent weights, so every row sums to zero.
    """
    diag = np.zeros(len(weights) + 1)
    diag[:-1] -= weights
    diag[1:] -= weights
    return TridiagonalOperator(off=weights, diag=diag)


def build_laplacian(params: ExperimentParams) -> TridiagonalOperator:
    """Two-scale discrete Laplacian on the flat mesh (M x M, symmetric).

    Off-diagonal j is the coupling 1/tau of the link between nodes j and
    j+1, so every row sums to zero and -Lap is positive semidefinite.
    """
    return _path_laplacian(1.0 / time_mesh(params).link_tau)


def exposure_coupling(params: ExperimentParams) -> TridiagonalOperator:
    """Unit-coupling Laplacian of the submesh links: one Neumann block per
    window, a zero row/column at the anchor node.  Link j joins nodes j and
    j+1, and each window starts with one dead link (weight 0) followed by K
    submesh links (weight 1)."""
    weights = np.ones(params.node_count - 1)
    weights[:: params.K + 1] = 0.0
    return _path_laplacian(weights)


@dataclass(eq=False)
class PosteriorProblem:
    """One inference target: parameters, counts, and precomputed structure.

    counts=None drops the likelihood (prior-only target).  The physical
    fields are treated as immutable after construction.
    """

    params: ExperimentParams
    counts: np.ndarray | None = None
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
            # nan, inf and counts past int64 fail too: astype would wrap them
            if not np.all((w >= 0) & (w < 2**63) & (w == np.floor(w))):
                raise ValueError("counts must be nonnegative integers")
            self.counts = w.astype(np.int64)
        lap = build_laplacian(p)
        # Row/column 0 removed: q_0 is pinned at zero and is not a sampling
        # degree of freedom, so implicit solves act on the remaining M-1.
        self.active_laplacian = TridiagonalOperator(off=lap.off[1:], diag=lap.diag[1:])
        # the gradient loop's couplings repeat two values, so equal entries
        # share one float object
        self._s = _shared_floats(lap.off)
        self._tau = link = time_mesh(p).link_tau
        self._vp_coef = 1.0 / (4.0 * p.D * link)
        link.setflags(write=False)
        self._vp_coef.setflags(write=False)
        self._inv2d = 1.0 / (2.0 * p.D)
        self._inv2w = 1.0 / (2.0 * p.omega)
        self._dIdx = p.I_ref / p.omega  # |dI/dx| prefactor
        self._w = None if self.counts is None else [float(x) for x in self.counts]
        # per-problem constants the kernels read on every call
        self._m = p.node_count
        self._k = p.K
        self._tau_sub = p.tau_sub
        self._k_ibg = p.K * p.I_bg
        self._i_ref = p.I_ref

    @property
    def node_count(self) -> int:
        return self._m


# -- energies ---------------------------------------------------------------


@np.errstate(all="ignore")
def v_prior(q: np.ndarray, problem: PosteriorProblem) -> float:
    """Random-walk prior energy sum (dq)^2 / (4 D tau) over all links, each
    term (c d) d and the sum taken left to right."""
    x = np.asarray(q, _F64)
    d = x[1:] - x[:-1]
    terms = problem._vp_coef * d
    terms *= d
    return float(np.add.accumulate(terms)[-1])


def v_like(q: np.ndarray, problem: PosteriorProblem) -> float:
    """Poisson window energy sum_n [u_n - w_n log u_n] (w=None: 0)."""
    if problem._w is None:
        return 0.0
    p = problem.params
    x = np.asarray(q, _F64).tolist()
    inv2w, i_bg, i_ref = problem._inv2w, p.I_bg, problem._i_ref
    tau, kk = problem._tau_sub, problem._k
    w = problem._w
    exp = math.exp
    acc = 0.0
    base = 1  # carried: window n's first node, 1 + n (K + 1)
    for wn in w:
        end = base + kk
        xv = x[base]
        s = 0.5 * (i_bg + i_ref * exp(-xv * xv * inv2w))
        for xv in x[base + 1 : end]:
            s += i_bg + i_ref * exp(-xv * xv * inv2w)
        xv = x[end]
        s += 0.5 * (i_bg + i_ref * exp(-xv * xv * inv2w))
        u = tau * s
        acc += u - wn * math.log(u)
        base = end + 1
    return acc


# -- gradients --------------------------------------------------------------


def grad_v_prior(q: np.ndarray, problem: PosteriorProblem) -> np.ndarray:
    """d V_prior / d q = -(1/2D) Lap q, assembled link-wise."""
    x = np.asarray(q, _F64)
    m = problem._m
    if x.shape != (m,):
        raise ValueError(f"trajectory must have shape ({m},), got {x.shape}")
    xs = x.tolist()
    s = problem._s
    c = problem._inv2d
    g = [0.0] * m
    # carried: left coupling s[j-1], left value xs[j-1], centre value xs[j]
    sl, xl, xc = s[0], xs[0], xs[1]
    g[0] = c * sl * (xl - xc)
    for j in range(1, m - 1):
        sr, xr = s[j], xs[j + 1]
        g[j] = c * (sl * (xc - xl) + sr * (xc - xr))
        sl, xl, xc = sr, xc, xr
    g[m - 1] = c * sl * (xc - xl)
    return np.fromiter(g, _F64, m)


def grad_v_like(q: np.ndarray, problem: PosteriorProblem) -> np.ndarray:
    """d V_like / d q; zero at the anchor node (no quadrature weight there)."""
    x = np.asarray(q, _F64)
    m = problem._m
    if x.shape != (m,):
        raise ValueError(f"trajectory must have shape ({m},), got {x.shape}")
    w = problem._w
    if w is None:
        return np.zeros(m)
    xs = x.tolist()
    inv2w, didx = problem._inv2w, problem._dIdx
    tau, kk, k_ibg, i_ref = problem._tau_sub, problem._k, problem._k_ibg, problem._i_ref
    exp = math.exp
    prof = [exp(-v * v * inv2w) for v in xs]
    # dV/dq_j = -f_n c_k didx q_j prof_j over window n's node k, with
    # quadrature weight c_k = 1/2 at the window's two end nodes, 1 inside
    coef = [0.0]
    base = 1  # carried: window n's first node, 1 + n (K + 1)
    for wn in w:
        end = base + kk
        # left to right by hand: builtin sum is compensated from Python 3.12
        interior = 0.0
        for e in prof[base + 1 : end]:
            interior += e
        s = 0.5 * (prof[base] + prof[end]) + interior
        u = tau * (k_ibg + i_ref * s)
        f = (1.0 - wn / u) * tau
        row = [-f * didx] * (kk + 1)
        row[0] = row[kk] = -f * 0.5 * didx
        coef += row
        base = end + 1
    # + 0.0 turns -0.0 into +0.0, as accumulating into a zeroed list would
    g = [c * v * e + 0.0 for c, v, e in zip(coef, xs, prof)]
    g[0] = 0.0
    return np.fromiter(g, _F64, m)


def grad_v(q: np.ndarray, problem: PosteriorProblem) -> np.ndarray:
    """Gradient of the full potential V_like + V_prior."""
    g = grad_v_prior(q, problem)
    g += grad_v_like(q, problem)
    return g


# -- Hamiltonians -----------------------------------------------------------


def _kinetic(p: np.ndarray) -> float:
    # np.vdot gives np.dot's bits without its overflow warning, and costs no
    # np.errstate entry (about 1.3 us at M = 9, four times per update)
    p = np.asarray(p, dtype=float)
    return 0.5 * float(np.vdot(p, p))


def hamiltonian_like(q, p, problem: PosteriorProblem, hmc: HmcParams) -> float:
    """Likelihood subsystem energy V_like + (1-theta) p.p/2."""
    return v_like(q, problem) + (1.0 - hmc.theta) * _kinetic(p)


def hamiltonian_prior(q, p, problem: PosteriorProblem, hmc: HmcParams) -> float:
    """Prior subsystem energy V_prior + theta p.p/2."""
    return v_prior(q, problem) + hmc.theta * _kinetic(p)


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


def verlet_step_bound(params: ExperimentParams, weight: float) -> float:
    """Step below which explicit Stormer-Verlet on the prior with kinetic
    weight ``weight`` is stable: h omega < 2 with omega^2 = weight times
    ``max_eigenvalue_bound(params)``.  inf at weight 0."""
    lam = weight * max_eigenvalue_bound(params)
    return 2.0 / math.sqrt(lam) if lam > 0 else math.inf


@dataclass(frozen=True)
class CflCertificate:
    """The single-frequency step certificate for the prior subsystem.

    c = sqrt(theta / (D tau_sub)) is the frequency of the theta-weighted
    submesh coupling alone, and h_max = 2/c (acceptance check 5 pins it).
    It leaves out the dead links, so it can overstate the explicit edge;
    ``verlet_step_bound`` is the bound that holds on every mesh, and the
    one ``certify`` judges a step by.
    """

    c: float
    h_max: float


def cfl_certificate(params: ExperimentParams, hmc: HmcParams) -> CflCertificate:
    if params.D <= 0:
        raise ValueError("certificate requires D > 0")
    c = math.sqrt(hmc.theta / (params.D * params.tau_sub))
    h_max = 2.0 / c if c > 0 else math.inf
    return CflCertificate(c=c, h_max=h_max)
