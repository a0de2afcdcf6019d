"""Rectifying-curve classification and its equivalent signatures.

A curve is rectifying when its position vector stays in the span of the
tangent and binormal, i.e. the principal-normal component beta(s) vanishes.
Equivalent signatures: the tangential component is s + m1, the binormal
component is a nonzero constant n1, the squared distance is
|(s+m1)^2 + e n1^2| with e = <b,b>, and tau/kappa is an affine function of
s with slope -1/n1.  classify_rectifying reads all of them off one frame
decomposition of one FrenetGrid, for any verdict, and
RectifyingVerdict.signature_checks tells which of the four hold.
"""

import numpy as np

from pgcurves import (
    ORIGIN,
    classify_rectifying,
    curve_from_exprs,
    frame_components_arrays,
    frenet_grid,
    rectifying_drift,
    synth_rectifying,
)

# --- a non-example first: constant tau/kappa means slope zero ------------
curve = curve_from_exprs("cosh(s)", "sinh(s)", 0.0, 2.0)
verdict = classify_rectifying(frame_components_arrays(frenet_grid(curve), ORIGIN))
print("curve (cosh s, sinh s) from the origin:")
print(f"  is_rectifying = {verdict.is_rectifying}")
print(f"  beta_max = {verdict.beta_max:.6f} (normal component is "
      "identically 1)")
print(f"  tau/kappa line: a = {verdict.a:.2e}, b = {verdict.b_coef:.6f} "
      "(slope must be nonzero)")

fc = frame_components_arrays(frenet_grid(curve, np.array([0.8])), ORIGIN)
print(f"  components at s=0.8: alpha={fc.alpha[0]:.6f} beta={fc.beta[0]:.6f} "
      f"gamma={fc.gamma[0]:.6f}")

# --- synthesize a genuine rectifying curve -------------------------------
m1, n1 = 0.5, 1.2
window = (-m1 - 1.0, -m1 + 1.0)  # centered where the tangential part vanishes
traj = synth_rectifying(m1, n1, "1", window, step=1e-3, margin=0.05)

# r - (s+m1) t - n1 b is a constant of motion of the exact flow
spread = np.max(rectifying_drift(traj, m1, n1))
print(f"\nsynthesized rectifying curve (m1={m1}, n1={n1}, kappa=1):")
print(f"  conserved-vector spread along the trajectory: {spread:.2e}")

grid = frenet_grid(traj.to_curve(*window))
dec = frame_components_arrays(grid, ORIGIN)
verdict = classify_rectifying(dec)
print(f"  is_rectifying = {verdict.is_rectifying}")
print(f"  fitted m1 = {verdict.m1:.10f} (true {m1})")
print(f"  fitted n1 = {verdict.n1:.10f} (true {n1})")
print(f"  tau/kappa slope a = {verdict.a:.10f} (expect -1/n1 = {-1/n1:.10f})")
print(f"  beta_max = {verdict.beta_max:.2e}")

distance_ok, tangential_ok, normal_ok, binormal_ok = verdict.signature_checks(1e-5)
print("\nthe four signatures:")
print(f"  (i)   distance law        ok={distance_ok} "
      f"residual={verdict.rho_check:.2e}")
print(f"  (ii)  tangential = s+m1   ok={tangential_ok} "
      f"residual={verdict.tangential_residual:.2e}")
print(f"  (iii) |normal part| const ok={normal_ok} "
      f"residual={verdict.normal_length_residual:.2e} "
      f"(distance itself varies by {verdict.rho_spread:.3f})")
print(f"  (iv)  binormal const      ok={binormal_ok} "
      f"residual={verdict.gamma_spread:.2e} "
      f"(max |tau| = {verdict.tau_abs_max:.3f})")

spread = rectifying_drift(grid, verdict.m1, verdict.n1)
print(f"\nconserved vector spread measured through re-analysis: "
      f"{np.max(spread):.2e}")
