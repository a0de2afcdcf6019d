"""Curve synthesis from prescribed curvature and torsion profiles.

The frame equations r' = t, t' = kappa n, n' = tau b, b' = tau n make
(n, b) a hyperbolic rotation of the isotropic plane by theta = integral of
tau, so synthesis rotates the frame in closed form and gets t and r by
cumulative Simpson quadrature, fourth order in the step.  The quantities
n_y^2 - n_z^2, b_y^2 - b_z^2, n_y b_y - n_z b_z and the frame determinant
are constants of the exact flow; the closed-form rotation keeps them to
rounding, which the long run below shows.
"""

import math

import numpy as np

from pgcurves import frenet_grid, integrate_frenet
from pgcurves.synth import profile

# --- kappa = 1, tau = 0 gives the parabola (s, s^2/2, 0) exactly ----------
traj = integrate_frenet(profile("1", "0", 0.0, 1.0), step=1e-3)
print("kappa=1, tau=0 endpoint:", traj.r[-1])
print(f"  expected (1, 0.5, 0); error {abs(traj.r[-1,1]-0.5):.2e}")

# --- kappa = tau = 1 has a closed-form hyperbolic solution ----------------
traj = integrate_frenet(profile("1", "1", 0.0, 1.0), step=1e-3)
exact_y = math.cosh(1.0) - 1.0
print(f"\nkappa=1, tau=1 endpoint y: {traj.r[-1,1]:.15f} "
      f"(exact {exact_y:.15f}, error {abs(traj.r[-1,1]-exact_y):.2e})")


# --- order of accuracy by step halving ------------------------------------
def endpoint_error(step):
    t = integrate_frenet(profile("1", "1", 0.0, 1.0), step=step)
    ch, sh = math.cosh(1.0), math.sinh(1.0)
    exact = np.array([ch - 1.0, sh - 1.0, sh, ch - 1.0, ch, sh, sh, ch])
    got = np.array([t.r[-1, 1], t.r[-1, 2], t.t_y[-1], t.t_z[-1],
                    t.n_y[-1], t.n_z[-1], t.b_y[-1], t.b_z[-1]])
    return np.linalg.norm(got - exact)


e1, e2 = endpoint_error(0.05), endpoint_error(0.025)
print(f"\nstep halving: error({0.05}) = {e1:.3e}, error({0.025}) = {e2:.3e}, "
      f"ratio = {e1/e2:.1f} (fourth-order quadrature gives about 16)")

# --- constants of motion over a long run: rounding-level drift ------------
traj = integrate_frenet(profile("1", "1", 0.0, 4.0), step=1e-3)
cons = traj.conserved()
print("\nconstants of motion over length 4 (drift from start):")
for name, series in cons.items():
    print(f"  {name}: {np.max(np.abs(series - series[0])):.2e}")

# --- varying profiles round-trip through re-analysis ----------------------
traj = integrate_frenet(profile("1 + s^2/4", "sin(s)", 0.0, 2.0), step=1e-3)
curve = traj.to_curve(0.05, 1.95)
grid = frenet_grid(curve)
err_kappa = np.max(np.abs(grid.kappa - (1.0 + grid.s**2 / 4.0)))
err_tau = np.max(np.abs(grid.tau - np.sin(grid.s)))
print(f"\nprescribed vs re-analyzed invariants (kappa = 1 + s^2/4, "
      f"tau = sin s):")
print(f"  max kappa error {err_kappa:.2e}, max tau error {err_tau:.2e}")
