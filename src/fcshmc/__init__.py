"""Simulation and HMC trajectory inference for confocal photon-count data.

A single diffusing emitter is observed through a Gaussian detection profile
in alternating exposure/dead-time windows; photon counts per window are
Poisson.  This package simulates such data, and reconstructs the posterior
over the emitter trajectory with Hamiltonian Monte Carlo built on either a
fully explicit Stormer-Verlet integrator (``svex``) or a Strang split with
an implicit midpoint solve of the stiff prior subsystem (``imex``), plus
sign-reflection Gibbs moves for the mirror-mode degeneracy.  A benchmark
harness (``fcshmc.harness``, CLI ``fcshmc``) reproduces the stability,
efficiency, convergence, and cost experiments.
"""

__version__ = "0.1.0"

from .harness import (
    ExperimentConfig,
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
)
from .integrators import (
    MidpointSystem,
    PhaseState,
    imex_l_steps,
    imex_step,
    midpoint_prior_step,
    sv_full_step,
    sv_likelihood_step,
    sv_prior_step,
    svex_l_steps,
)
from .model import (
    ExperimentParams,
    Simulation,
    TimeMesh,
    TimescaleOrderingWarning,
    Trajectory,
    intensity,
    psf,
    sample_measurements,
    sample_prior_trajectory,
    signal,
    simulate,
    time_mesh,
)
from .posterior import (
    CflCertificate,
    HmcParams,
    PosteriorProblem,
    Scheme,
    build_laplacian,
    cfl_certificate,
    dead_time_coupling,
    exposure_block_eigenvalues,
    exposure_coupling,
    grad_v,
    grad_v_like,
    grad_v_prior,
    hamiltonian,
    hamiltonian_like,
    hamiltonian_prior,
    max_eigenvalue_bound,
    v_like,
    v_prior,
)
from .rng import RandomStream
from .sampler import (
    Chain,
    HmcMove,
    draw_momentum,
    hmc_update,
    reflect_head,
    reflect_tail,
    reflection_log_ratio,
    reflection_update,
    run_chain,
)
from .tridiag import SingularSystemError, TridiagonalOperator, thomas_solve, tridiag_matvec
