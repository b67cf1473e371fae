"""How the HMC acceptance rate decays with step size, per scheme.

Shrunk version of the efficiency experiment: the integration lengths are
the primes below L = 6 (2, 3 and 5) instead of the primes below 100, with
short chains on a small mesh.  The split scheme holds its acceptance longer
than the fully explicit one because the implicit midpoint half-steps remove
the prior-stiffness energy error; both fall off a cliff once the step
crosses the explicit stability edge of the modes each scheme still treats
explicitly.
"""

from fcshmc import apply_overrides, default_config
from fcshmc.harness import exp_efficiency

config = apply_overrides(
    default_config("efficiency", seed=0),
    {"N": 6, "K": 10, "L": 6, "updates_per_point": 60,
     "sweep": "0.01 0.02 0.03 0.04 0.05 0.06"},
)
result = exp_efficiency(config)

print("   h     AR explicit (svex)   AR split (imex)")
for h, ar_svex, ar_imex in result.rows:
    bar_s = "#" * round(20 * ar_svex)
    bar_i = "#" * round(20 * ar_imex)
    print(f"{h:5.2f}   {ar_svex:11.3f} {bar_s:20s}   {ar_imex:7.3f} {bar_i}")
print(f"\nCSV: {result.paths[0]}")
