"""Forward model for confocal photon-count time series.

A single fluorescent molecule diffuses (1-d Brownian motion, coefficient
``D``) through a Gaussian illumination profile centred on the detection
volume.  The detector alternates between exposure windows of length
``tau_exp`` and dead gaps of length ``tau_dead``; each exposure is resolved
on a submesh of ``K`` panels so the expected count is a trapezoid quadrature
of the instantaneous emission intensity along the trajectory.  Photon counts
per window are Poisson draws around that quadrature value.

Units: positions in micrometres, times in seconds, intensities in counts/s.
The waist parameter ``omega`` enters the profile exponent linearly, i.e.
``exp(-x^2 / (2 omega))``, so it acts as a variance-like width in um^2 even
though instrument specs usually quote a um beam waist.  Configs are taken
verbatim; no squaring is applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import RandomStream

__all__ = [
    "ExperimentParams",
    "TimeMesh",
    "Simulation",
    "psf",
    "intensity",
    "time_mesh",
    "signal",
    "sample_prior_trajectory",
    "simulate",
]


def _validate(record, positive, whole):
    """Raise ValueError unless each field named in ``positive`` is finite and
    > 0 and each field named in ``whole`` (a mapping name -> least value) is
    a Python or numpy integer, not a bool, at or above its least value."""
    for name in positive:
        v = getattr(record, name)
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be finite and > 0")
    for name, least in whole.items():
        v = getattr(record, name)
        if not isinstance(v, (int, np.integer)) or isinstance(v, bool) or v < least:
            raise ValueError(f"{name} must be an integer >= {least}")


@dataclass(frozen=True)
class ExperimentParams:
    """Physical and mesh parameters of one experiment.

    Attributes
    ----------
    D : diffusion coefficient, um^2/s (0 allowed for a frozen molecule)
    I_ref : peak emission rate at the beam centre, counts/s
    I_bg : background rate, counts/s (> 0 keeps every Poisson mean positive)
    omega : beam profile width parameter, um^2 (see module docstring)
    tau_dead : dead gap between exposures, s
    tau_exp : exposure window length, s
    N : number of exposure windows
    K : quadrature panels per window
    """

    D: float = 5.0e2
    I_ref: float = 5.0e4
    I_bg: float = 1.0e3
    omega: float = 0.23
    tau_dead: float = 1.0e-6
    tau_exp: float = 9.0e-5
    N: int = 20
    K: int = 20

    def __post_init__(self):
        if not (math.isfinite(self.D) and self.D >= 0):
            raise ValueError("D must be finite and >= 0")
        _validate(self, positive=("I_ref", "I_bg", "omega", "tau_dead", "tau_exp"),
                  whole=dict(N=1, K=1))

    @property
    def tau_sub(self) -> float:
        """Submesh spacing tau_exp / K."""
        return self.tau_exp / self.K

    @property
    def node_count(self) -> int:
        """Flat trajectory length M = N*(K+1) + 1 (anchor node included)."""
        return self.N * (self.K + 1) + 1


@dataclass(frozen=True, eq=False)
class TimeMesh:
    """Node times of the flattened two-scale mesh.

    ``times[0] = 0`` is the anchor just before the first dead gap; window n
    (1-based) occupies flat indices ``1 + (n-1)(K+1) .. n(K+1)``.  ``link_tau``
    holds the M-1 inter-node gaps: per window, one tau_dead link followed by
    K tau_sub links.
    """

    times: np.ndarray
    link_tau: np.ndarray


@dataclass(frozen=True, eq=False)
class Simulation:
    """One synthetic data set: the latent trajectory (molecule positions, um,
    at the nodes of ``mesh``), the window signal and the counts."""

    trajectory: np.ndarray
    mesh: TimeMesh
    signal: np.ndarray
    counts: np.ndarray


def psf(x, omega: float):
    """Detection profile G(x) = exp(-x^2 / (2 omega)), peak 1 at the centre."""
    x = np.asarray(x, dtype=float)
    out = np.exp(-np.square(x) / (2.0 * omega))
    return out if out.ndim else float(out)


def intensity(x, params: ExperimentParams):
    """Emission rate I(x) = I_bg + I_ref * G(x), counts/s."""
    return params.I_bg + params.I_ref * psf(x, params.omega)


def time_mesh(params: ExperimentParams) -> TimeMesh:
    link = np.empty(params.node_count - 1)
    link.reshape(params.N, params.K + 1)[:, 0] = params.tau_dead
    link.reshape(params.N, params.K + 1)[:, 1:] = params.tau_sub
    times = np.concatenate(([0.0], np.cumsum(link)))
    return TimeMesh(times=times, link_tau=link)


def signal(q, params: ExperimentParams) -> np.ndarray:
    """Expected count per window: composite trapezoid rule along q.

    u_n = (tau_sub/2) * sum_k [I(q_{n,k-1}) + I(q_{n,k})].  Exact for
    constant intensities, second order in tau_sub otherwise.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (params.node_count,):
        raise ValueError(
            f"trajectory must have shape ({params.node_count},), got {q.shape}"
        )
    rates = intensity(q[1:], params).reshape(params.N, params.K + 1)
    weights = np.full(params.K + 1, params.tau_sub)
    weights[0] = weights[-1] = 0.5 * params.tau_sub
    return rates @ weights


def sample_prior_trajectory(stream: RandomStream, params: ExperimentParams) -> np.ndarray:
    """Pinned Brownian path on the mesh: q_0 = 0, increments N(0, 2D*dt)."""
    mesh = time_mesh(params)
    steps = np.sqrt(2.0 * params.D * mesh.link_tau) * stream.standard_normals(
        params.node_count - 1
    )
    return np.concatenate(([0.0], np.cumsum(steps)))


def simulate(stream: RandomStream, params: ExperimentParams) -> Simulation:
    """Draw trajectory, evaluate the window signal, draw photon counts.

    Consumes the stream in a fixed order (trajectory first, then counts), so
    a given (seed, stream_id, params) always yields the same data set.
    """
    q = sample_prior_trajectory(stream, params)
    u = signal(q, params)
    return Simulation(trajectory=q, mesh=time_mesh(params), signal=u, counts=stream.poissons(u))
