"""Normal-plane component profiles for constant invariants, and their fits.

When curvature and torsion are constant, decomposing the position vector in
the frame and insisting it stays in the {n, b} plane leads to the linear
system  xi'' + 2 tau eta' + tau^2 xi = kappa,  eta'' + 2 tau xi' + tau^2
eta = 0,  solved in closed form by

    xi(s)  = (c1 + c2 s) e^(-tau s) + (c3 + c4 s) e^(tau s) + kappa/tau^2
    eta(s) = (c1 + c2 s) e^(-tau s) - (c3 + c4 s) e^(tau s).

The fitter recovers (kappa, tau, c1..c4) from raw samples of (xi, eta)
alone: an integral-equation regression gives candidate taus on any grid,
one joint least-squares fit scores each, and one Gauss-Newton step refines
the winner (variable projection).
"""

import numpy as np

from pgcurves import (
    ORIGIN,
    curve_from_exprs,
    fit_normal_components,
    fit_normal_samples,
    frame_components_arrays,
    frenet_grid,
    normal_component_exprs,
    normal_ode_residuals,
    synth_normal_components,
)
from pgcurves.classify import NonConstantInvariants

# --- the closed forms really solve the system -----------------------------
kappa, tau = 2.5, -1.3
c = (0.3, -0.2, 0.1, 0.05)
xi_e, eta_e = normal_component_exprs(kappa, tau, c)
r1, r2 = normal_ode_residuals(xi_e, eta_e, kappa, tau, np.linspace(0, 2, 201))
print(f"system residuals of the closed forms: {r1:.2e}, {r2:.2e}")

# --- blind recovery from samples -------------------------------------------
out = synth_normal_components(kappa, tau, c, np.linspace(0.0, 2.0, 161))
fit = fit_normal_samples(out.s, out.xi, out.eta)
print("\nblind recovery from 161 samples:")
print(f"  kappa {fit.kappa0:.12f} (true {kappa})")
print(f"  tau   {fit.tau0:.12f} (true {tau})")
print(f"  c     ({fit.c1:.12f}, {fit.c2:.12f}, {fit.c3:.12f}, {fit.c4:.12f})")
print(f"  profile misfit: xi {fit.xi_residual:.2e}, eta {fit.eta_residual:.2e}")

# --- measured curve components do not fit the family -----------------------
# Admissible curves carry their position's x component in the tangential
# slot, which feeds back into the plane components; the family above assumes
# that feedback away.  The fit is still well-defined and reports the misfit.
curve = curve_from_exprs("cosh(s)", "sinh(s)", 0.0, 2.0)
fit = fit_normal_components(frame_components_arrays(frenet_grid(curve), ORIGIN))
print(f"\ncurve (cosh s, sinh s): measured kappa={fit.kappa0:.6f}, "
      f"tau={fit.tau0:.6f}")
print(f"  best-fit misfit: xi {fit.xi_residual:.3f}, eta {fit.eta_residual:.3f} "
      "(large: the curve is not a normal curve)")

# --- non-constant invariants are rejected up front --------------------------
varying = curve_from_exprs("exp(s)", "s^2/2", 0.5, 1.5)
try:
    fit_normal_components(frame_components_arrays(frenet_grid(varying), ORIGIN))
except NonConstantInvariants as err:
    print(f"\nvarying-invariant curve rejected: {err}")
