"""The explicit-integrator step-size certificate, and when to distrust it.

The prior over trajectories couples neighboring nodes with strength 1/tau;
treating the slowest exposure coupling as a harmonic oscillator of frequency
c = sqrt(theta / (D tau_sub)) gives the classic leapfrog bound
h_max = 2/c.  That logic assumes the exposure links are the stiffest ones.
With the default timescales the *dead-time* links are stiffer
(tau_dead < tau_sub), so the certificate overestimates the real edge —
`fcshmc certify` prints the same caveat.  Here we measure the actual edge.
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
)
from fcshmc.sampler import draw_momentum

params = ExperimentParams()          # N = K = 20 benchmark setup
hmc = HmcParams(theta=0.5, h=0.1)
cert = cfl_certificate(params, hmc)
print(f"surrogate frequency c        = {cert.c:.6f}")
print(f"certified bound h_max = 2/c  = {cert.h_max:.6f}")
print(f"spectral bound on the prior  = {max_eigenvalue_bound(params):.1f} "
      "(1/s^2 units of the gradient map)\n")

problem = PosteriorProblem(params)   # prior only
q0 = sample_prior_trajectory(RandomStream(0, 2), params)
p0 = draw_momentum(RandomStream(0, 3), params.node_count)

print("   h      max |H|/|H_0| over 100 explicit prior steps")
for h in (0.01, 0.02, 0.04, 0.055, 0.06, 0.08, 0.134):
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
    print(f"{h:6.3f}   {worst:.3e}")

print("\nthe measured edge sits near h = 0.06, well below h_max = "
      f"{cert.h_max:.3f}: the dead links (tau_dead = {params.tau_dead:.0e} s) "
      f"oscillate faster than the\nexposure links (tau_sub = "
      f"{params.tau_sub:.2e} s) the certificate is built from.")
