"""The probability path from noise to data, and why five Euler steps are enough.

The training path interpolates a prior draw x0 toward a data point x1 with a
residual floor SIGMA_MIN. Along that path the per-example velocity is constant
in time, so forward Euler lands on the endpoint exactly no matter how coarse
the grid - the sampling cost story in one script.
"""

import numpy as np

from flowsr.flowpath import (SIGMA_MIN, conditional_vector_field, psi_t,
                             sample_training_tuple, target_vector_field)
from flowsr.sampler import SolverConfig, euler_solve

rng = np.random.default_rng(7)

x0 = rng.standard_normal(6)
x1 = rng.standard_normal(6)

print("position along the path (first coordinate):")
for t in (0.0, 0.25, 0.5, 0.75, 1.0):
    print(f"  t={t:4.2f}  psi_t={psi_t(x0, x1, t)[0]: .4f}")
print(f"  endpoints: x0={x0[0]: .4f}, x1 + SIGMA_MIN*x0={x1[0] + SIGMA_MIN * x0[0]: .4f}")

target = target_vector_field(x0, x1)
print(f"\nper-example velocity x1 - (1 - SIGMA_MIN) x0 = {target[0]: .4f}, "
      "the regression target at every t")
for t in (0.1, 0.6, 0.9):
    v = conditional_vector_field(psi_t(x0, x1, t), x1, t)
    print(f"  recovered from the path position at t={t}: {v[0]: .4f}")

# integrate the exact field with 5, 2 and 1 Euler steps
for dt in (0.2, 0.5, 1.0):
    calls = []

    def field(x, t):
        calls.append(t)
        return conditional_vector_field(x, x1, t)

    out, evals = euler_solve(field, x0, SolverConfig(step_size=dt))
    err = np.max(np.abs(out - (x1 + SIGMA_MIN * x0)))
    print(f"\ndt={dt}: {evals} model evaluations at t={calls}, endpoint error {err:.1e}")

# what training actually sees: a random t and the path position there
tup = sample_training_tuple(x1, rng)
print(f"\ntraining tuple: t={tup.t:.3f}, x_t[0]={tup.x_t[0]: .4f}, "
      f"target[0]={tup.target[0]: .4f}")
