"""Frame components of constant-invariant curves, and their fits.

Write r - p0 = alpha t + beta n + gamma b.  The frame equations
t' = kappa n, n' = tau b, b' = tau n turn r' = t into

    alpha' = 1,   beta' = -kappa alpha - tau gamma,   gamma' = -tau beta,

and with kappa and tau constant, tau != 0, every solution is

    alpha(s) = s + m1
    beta(s)  = kappa/tau^2 + c_plus e^(tau s) + c_minus e^(-tau s)
    gamma(s) = -kappa (s + m1)/tau - c_plus e^(tau s) + c_minus e^(-tau s).

The classifier measures kappa and tau, takes m1 from alpha, and fits
c_plus and c_minus by one linear least-squares fit of (beta, gamma).
"""

import numpy as np

from pgcurves import (
    ORIGIN,
    PGVector3,
    classify_rectifying,
    constant_invariant_jets,
    curve_from_exprs,
    fit_constant_invariant,
    frame_components_arrays,
    frenet_grid,
    integrate_frenet,
)
from pgcurves.synth import profile


def fit(curve, p0=ORIGIN):
    dec = frame_components_arrays(frenet_grid(curve), p0)
    verdict = classify_rectifying(dec)
    return fit_constant_invariant(dec, verdict), verdict


# --- the closed forms solve the frame equations ----------------------------
kappa, tau, m1, c_plus, c_minus = 2.5, -1.3, 0.4, 0.3, -0.2
alpha, beta, gamma = constant_invariant_jets(kappa, tau, m1, c_plus, c_minus,
                                             np.linspace(0.0, 2.0, 201))
print("residuals of the closed forms, through the jets:")
print(f"  alpha' - 1                      {np.max(np.abs(alpha.d1 - 1.0)):.2e}")
print(f"  beta' + kappa alpha + tau gamma {np.max(np.abs(beta.d1 + kappa * alpha.v + tau * gamma.v)):.2e}")
print(f"  gamma' + tau beta               {np.max(np.abs(gamma.d1 + tau * beta.v)):.2e}")

# --- a synthesis round trip ------------------------------------------------
# Synthesis starts at r0 with the canonical frame, so alpha, beta and gamma
# at s = 0 are r0's components; that fixes m1, c_plus and c_minus.
kappa, tau, r0 = 2.0, 0.7, PGVector3(0.3, -0.5, 0.8)
traj = integrate_frenet(profile(kappa, tau, 0.0, 2.0), r0=r0)
result, verdict = fit(traj.to_curve(0.2, 1.8))
c_sum, c_diff = r0.y - kappa / tau ** 2, r0.z + kappa * r0.x / tau
print(f"\nsynthesized kappa={kappa}, tau={tau} from r0 = ({r0.x}, {r0.y}, {r0.z}):")
print(f"  holds {result.holds}, measured kappa {result.kappa:.9f}, tau {result.tau:.9f}")
print(f"  m1      {verdict.m1:.9f} (from r0: {r0.x})")
print(f"  c_plus  {result.c_plus:.9f} (from r0: {0.5 * (c_sum - c_diff):.9f})")
print(f"  c_minus {result.c_minus:.9f} (from r0: {0.5 * (c_sum + c_diff):.9f})")
print(f"  relative residual {result.residual:.1e}")

# --- cosh/sinh is a member of the family ------------------------------------
for p0 in (ORIGIN, PGVector3(0.3, -1.0, 2.0)):
    result, _ = fit(curve_from_exprs("cosh(s)", "sinh(s)", 0.0, 2.0), p0)
    print(f"\n(cosh s, sinh s) about ({p0.x}, {p0.y}, {p0.z}): holds {result.holds}, "
          f"kappa {result.kappa:.6f}, tau {result.tau:.6f}")
    print(f"  c_plus {result.c_plus:.6f}, c_minus {result.c_minus:.6f}, "
          f"relative residual {result.residual:.1e}")

# --- curves outside the family say why ---------------------------------------
for y, z, lo, hi in (("exp(s)", "s^2/2", 0.5, 1.5), ("s^2/2", "0", -1.0, 1.0)):
    result, _ = fit(curve_from_exprs(y, z, lo, hi))
    print(f"\n({y}, {z}): holds {result.holds}: {result.error}")
