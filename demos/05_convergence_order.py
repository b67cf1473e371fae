"""Both integrators are second order accurate: error ~ h^2 at fixed time.

Integrates one initial condition to time L h = 1 at several step sizes and
compares terminal positions against a fine-step reference of the same
scheme.  Doubling the resolution should cut the error by ~4x; the fitted
log-log slope should be ~2 for the position error and for the worst
energy drift along the run.
"""

from fcshmc import apply_overrides, default_config
from fcshmc.harness import exp_convergence, fit_loglog_slope

config = apply_overrides(
    default_config("convergence", seed=0),
    # reciprocals of integers, so every run hits time L h = 1 exactly
    {"N": 4, "K": 8, "sweep": [1 / l for l in (250, 354, 500, 707, 1000)]},
)
result = exp_convergence(config)

print("     h       q err svex    q err imex    H err svex    H err imex")
for h, q_sv, q_im, e_sv, e_im in result.rows:
    print(f"{h:8.5f}   {q_sv:.5e}   {q_im:.5e}   {e_sv:.5e}   {e_im:.5e}")

h = [row[0] for row in result.rows]
for label, col in (("q svex", 1), ("q imex", 2), ("H svex", 3), ("H imex", 4)):
    slope = fit_loglog_slope(h, [row[col] for row in result.rows])
    print(f"slope {label}: {slope:.3f}")
print(f"\nCSV: {result.paths[0]}")
