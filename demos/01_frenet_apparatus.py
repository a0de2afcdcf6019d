"""Frenet apparatus of admissible curves under the degenerate metric.

A curve in graph form r(s) = (s, y(s), z(s)) is admissible where
y''(s)^2 - z''(s)^2 stays away from zero.  There the moving frame
{t, n, b}, the orientation sign eps, the curvature kappa and the torsion
tau are all computed from exact third-order jets of the component
expressions.  frenet_grid evaluates them once on the curve's grid, and the
grid carries its admissibility report.  This script walks through the
basic calls and the built-in cross-checks.  The apparatus at one point is
read off a grid of that one point.
"""

import numpy as np

from pgcurves import (
    PGVector3,
    curve_from_exprs,
    det3,
    frenet_grid,
    pg_inner,
    torsion_det,
)


def frame_vectors(g, i):
    """t, n and b at row i of a FrenetGrid, as kernel vectors."""
    return (PGVector3(1.0, float(g.t_y[i]), float(g.t_z[i])),
            PGVector3(0.0, float(g.n_y[i]), float(g.n_z[i])),
            PGVector3(0.0, float(g.b_y[i]), float(g.b_z[i])))


# --- a curve with unit curvature and unit torsion ------------------------
curve = curve_from_exprs("cosh(s)", "sinh(s)", 0.0, 2.0)

report = frenet_grid(curve).admissibility
print(f"admissible: {report.admissible} on segments {report.segments}")

f = frenet_grid(curve, np.array([0.0]))
t, n, b = frame_vectors(f, 0)
print(f"\nframe at s=0:")
print(f"  t = {t.as_tuple()}")
print(f"  n = {n.as_tuple()}")
print(f"  b = {b.as_tuple()}")
print(f"  eps = {f.eps[0]:+.0f}, kappa = {f.kappa[0]:.15f}, tau = {f.tau[0]:.15f}")

# the frame is orthonormal for the degenerate product and det(t,n,b) = 1
print(f"\n  <t,t> = {pg_inner(t, t)}")
print(f"  <n,n> = {pg_inner(n, n)} (matches eps)")
print(f"  <b,b> = {pg_inner(b, b)} (opposite causal type)")
print(f"  <n,b> = {pg_inner(n, b)}")
print(f"  det(t,n,b) = {det3(t, n, b)}")

# --- two independent torsion formulas ------------------------------------
s_probe = 1.3
tau_frame = float(frenet_grid(curve, np.array([s_probe])).tau[0])
tau_determinant = torsion_det(curve, s_probe)
print(f"\ntorsion at s={s_probe}: component formula {tau_frame:.15f}, "
      f"determinant formula {tau_determinant:.15f}")
print(f"  gap = {abs(tau_frame - tau_determinant):.2e}")

# --- frame-equation residuals over the whole grid ------------------------
grid = frenet_grid(curve)
print(f"\nframe-equation residuals over {grid.s.size} points:")
print(f"  max |t' - kappa n| = {np.max(grid.res_t):.2e}")
print(f"  max |n' - tau b|   = {np.max(grid.res_n):.2e}")
print(f"  max |b' - tau n|   = {np.max(grid.res_b):.2e}")

# --- the orientation sign flips with the causal type of y'' - z'' --------
timelike = curve_from_exprs("s", "s^2", 0.0, 1.0)
g = frenet_grid(timelike, np.array([0.5]))
_, n, b = frame_vectors(g, 0)
print(f"\ncurve (s, s^2): eps = {g.eps[0]:+.0f}, kappa = {float(g.kappa[0])}, "
      f"n = {n.as_tuple()}, b = {b.as_tuple()}")

# --- inadmissible curves are rejected, with segments reported ------------
line = curve_from_exprs("s", "0", 0.0, 1.0, samples=11)
print(f"\nstraight line admissible: "
      f"{frenet_grid(line).admissibility.admissible}")

split = curve_from_exprs("s^4/12", "s^2/2", 0.0, 2.0)
rep = frenet_grid(split).admissibility
print(f"curve (s^4/12, s^2/2) admissible: {rep.admissible}; "
      f"constant-sign segments: {rep.segments}")

# --- residuals survive the sampled-data path too --------------------------
s = np.linspace(0.0, 2.0, 5000)
from pgcurves import curve_from_samples

sampled = curve_from_samples(s, np.cosh(s), np.sinh(s))
g = frenet_grid(sampled, np.linspace(0.1, 1.9, 200))
# dense samples are thinned to knots about 4e-3 apart before the spline fit
print(f"\nsampled path (one quintic spline through {sampled.sampled.rows.size} "
      f"of 5000 points): "
      f"worst residual {max(np.max(r) for r in (g.res_t, g.res_n, g.res_b)):.2e}")
