"""The explicit step bound, the older certificate, and the measured edge.

Explicit Stormer-Verlet stays stable while h omega < 2 for the fastest
oscillation omega of what it integrates.  The prior subsystem with kinetic
weight theta has omega^2 = theta lambda_max, lambda_max being the top
eigenvalue of the prior gradient map, and ``verlet_step_bound`` applies the
condition to the Weyl bound ``max_eigenvalue_bound`` on lambda_max.  The
certificate h_max = 2/c, c = sqrt(theta / (D tau_sub)), keeps only the
submesh coupling and leaves out the dead links, so it overstates the edge.
Here we measure the actual edge and print all three.
"""

import numpy as np

from fcshmc import (
    ExperimentParams,
    HmcParams,
    PhaseState,
    PosteriorProblem,
    RandomStream,
    cfl_certificate,
    hamiltonian_prior,
    max_eigenvalue_bound,
    sample_prior_trajectory,
    sv_prior_step,
    verlet_step_bound,
)
from fcshmc.sampler import draw_momentum

params = ExperimentParams()          # N = K = 20 benchmark setup
hmc = HmcParams(theta=0.5, h=0.1)
cert = cfl_certificate(params, hmc)
bound = verlet_step_bound(params, hmc.theta)
print(f"surrogate frequency c        = {cert.c:.6f}")
print(f"certified bound h_max = 2/c  = {cert.h_max:.6f}")
print(f"spectral bound on the prior  = {max_eigenvalue_bound(params):.1f} "
      "(1/s^2 units of the gradient map)")
print(f"Verlet step bound, theta     = {bound:.6f}")
print(f"Verlet step bound, weight 1  = {verlet_step_bound(params, 1.0):.6f} "
      "(the explicit chain)\n")

problem = PosteriorProblem(params)   # prior only
q0 = sample_prior_trajectory(RandomStream(0, 2), params)
p0 = draw_momentum(RandomStream(0, 3), params.node_count)

print("   h      max |H|/|H_0| over 100 explicit prior steps")
stable, blown = [], []
for h in (0.01, 0.02, 0.04, bound, 0.055, 0.058, 0.061, 0.08, cert.h_max):
    trial = HmcParams(theta=0.5, h=h)
    state = PhaseState(q=q0.copy(), p=p0.copy())
    h_start = hamiltonian_prior(state.q, state.p, problem, trial)
    worst = 1.0
    for _ in range(100):
        state = sv_prior_step(state, problem, trial)
        energy = hamiltonian_prior(state.q, state.p, problem, trial)
        if not np.isfinite(energy):
            worst = np.inf
            break
        worst = max(worst, abs(energy) / abs(h_start))
    (stable if worst < 10.0 else blown).append(h)
    print(f"{h:6.4f}   {worst:.3e}")

print(f"\nthe measured edge lies between h = {max(stable):.3f} and {min(blown):.3f}: "
      f"above the Verlet bound {bound:.4f}, which holds on every mesh,\nand well "
      f"below the certificate h_max = {cert.h_max:.3f}, which leaves out the dead "
      f"links (tau_dead = {params.tau_dead:.0e} s).")
