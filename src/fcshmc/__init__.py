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

__version__ = "0.1.0"  # first: harness imports it

# each module's __all__ is the one list of its public names
from .harness import *
from .integrators import *
from .model import *
from .posterior import *
from .rng import *
from .sampler import *
from .tridiag import *
