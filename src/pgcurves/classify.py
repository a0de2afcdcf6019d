"""Frame decomposition of position vectors and curve classification.

The position vector relative to an origin p0 is decomposed in the moving
frame, r(s) - p0 = alpha t + beta n + gamma b.  alpha is read off the x
component (t is the only frame vector with nonzero x) and (beta, gamma)
solve a 2x2 system in the isotropic plane.  The inner products written
<r, n>, <r, b> in the characterizations below always mean these frame
coefficients: the degenerate kernel product of a non-isotropic r with an
isotropic frame vector is identically zero and carries no information.

A command decomposes once, dec = frame_components_arrays(frenet_grid(curve),
p0), and every classifier below reads that one FrameDecomposition.

A curve is rectifying when beta vanishes along it.  Equivalent signatures,
all checked here: alpha(s) = s + m1; gamma(s) = n1 constant and the torsion
not identically zero; squared distance |alpha^2 + <n,n> beta^2 + <b,b>
gamma^2| equal to |s^2 + 2 m1 s + m1^2 + e n1^2| with e = <b, b>; and
tau/kappa affine in s with nonzero slope a.  Differentiating
r - (s + m1) t - n1 b with the frame equations forces a = -1/n1 and
intercept -m1/n1, which is the sign convention adopted throughout.

For a curve with constant curvature and torsion, tau != 0, the frame
equations t' = kappa n, n' = tau b, b' = tau n turn r' = t into alpha' = 1,
beta' = -kappa alpha - tau gamma and gamma' = -tau beta, solved by

    alpha(s) = s + m1
    beta(s)  = kappa/tau^2 + c_plus e^(tau s) + c_minus e^(-tau s)
    gamma(s) = -kappa (s + m1)/tau - c_plus e^(tau s) + c_minus e^(-tau s).

fit_constant_invariant measures kappa and tau, takes m1 from the rectifying
verdict, and fits c_plus and c_minus.
"""

import math
from dataclasses import dataclass

import numpy as np

from .frenet import FrenetGrid, require_admissible
from .jets import Jet3, jet_exp, jet_variable
from .space import PGVector3, plane_det, plane_product

__all__ = [
    "DegenerateFit", "FrameDecomposition", "frame_components_arrays",
    "RectifyingVerdict",
    "classify_rectifying",
    "ConstantInvariantFit", "constant_invariant_jets", "fit_constant_invariant",
    "DEFAULT_TOL_EXACT", "DEFAULT_TOL_SAMPLED",
]

DEFAULT_TOL_EXACT = 1e-6
DEFAULT_TOL_SAMPLED = 1e-4
# The relative spread of kappa and tau that fit_constant_invariant takes as
# constant on the sampled path.  tau needs the spline's third derivatives,
# which err most at the window ends: over [0, 2], tau spread by 3.2e-5 on 800
# curves with kappa in [0.5, 3] and |tau| in [0.3, 2], and by 2.4e-4 with
# kappa 0.5, tau 3; kappa 0.5, tau 2 over [0, 4] spreads by 6.7e-3.
_TOL_SAMPLED_SPREAD = 1e-2


class DegenerateFit(Exception):
    """Too few grid points to classify."""


@dataclass(frozen=True)
class FrameDecomposition:
    """Coefficient arrays of r(s) - p0 in the frame basis over one FrenetGrid."""

    grid: FrenetGrid
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray


def frame_components_arrays(grid: FrenetGrid, p0: PGVector3) -> FrameDecomposition:
    """Decompose r(s) - p0 in the frame at every point of a grid whose
    admissibility report holds; otherwise raise NotAdmissible."""
    require_admissible(grid)
    alpha = grid.r[:, 0] - p0.x
    py = grid.r[:, 1] - p0.y - alpha * grid.t_y
    pz = grid.r[:, 2] - p0.z - alpha * grid.t_z
    det = plane_det(grid.n_y, grid.n_z, grid.b_y, grid.b_z)
    beta = plane_det(py, pz, grid.b_y, grid.b_z) / det
    gamma = plane_det(grid.n_y, grid.n_z, py, pz) / det
    return FrameDecomposition(grid, alpha, beta, gamma)


@dataclass(frozen=True)
class RectifyingVerdict:
    """Outcome of the rectifying-curve test with fitted parameters.

    m1 is fitted from alpha(s) = s + m1, n1 is the mean binormal component,
    (a, b_coef) the least-squares line through tau/kappa against s.  With the
    sign convention fixed by the frame equations a = -1/n1 and
    b_coef = -m1/n1 for a true rectifying curve.

    The residuals of the four signatures, for any verdict:
    distance: rho_check = max | |q| - |(s+m1)^2 + e n1^2| |, q the squared
    distance and e = <b, b>, while rho = sqrt|q| varies by rho_spread;
    tangential: max |alpha - (s + m1)|;
    normal_length: max | |normal part| - |n1| |;
    binormal: gamma_spread = max |gamma - n1|, with tau_abs_max = max |tau|.
    """

    is_rectifying: bool
    m1: float
    n1: float
    a: float
    b_coef: float
    beta_max: float
    ratio_residual: float
    rho_check: float
    gamma_spread: float
    tangential_residual: float
    normal_length_residual: float
    rho_spread: float
    tau_abs_max: float
    tol: float

    def signature_checks(self, tol: float) -> tuple[bool, bool, bool, bool]:
        """Whether the distance, tangential, normal-length and binormal signatures hold.

        Each residual must be within tol; the normal length also needs the
        distance to vary, rho_spread > 10 tol, and the binormal a torsion that
        does not vanish, tau_abs_max > tol.
        """
        return (self.rho_check <= tol,
                self.tangential_residual <= tol,
                self.normal_length_residual <= tol and self.rho_spread > 10.0 * tol,
                self.gamma_spread <= tol and self.tau_abs_max > tol)

    def signatures_hold(self, tol: float) -> bool:
        """Whether all four signatures hold to tol."""
        return all(self.signature_checks(tol))


def classify_rectifying(dec: FrameDecomposition,
                        tol: float | None = None) -> RectifyingVerdict:
    """Decide whether the decomposed curve is rectifying relative to its origin.

    The verdict is max |beta| <= tol over the grid; the default tolerance
    depends on whether the grid came from exact or sampled components.
    Fitted parameters and the residuals of the equivalent characterizations
    are reported either way.
    """
    grid = dec.grid
    if grid.s.size < 8:
        raise DegenerateFit("classification needs a grid of at least 8 points")
    if tol is None:
        tol = DEFAULT_TOL_EXACT if grid.exact else DEFAULT_TOL_SAMPLED
    s, alpha, beta, gamma = grid.s, dec.alpha, dec.beta, dec.gamma

    beta_max = float(np.max(np.abs(beta)))
    m1 = float(np.mean(alpha - s))
    n1 = float(np.mean(gamma))
    gamma_spread = float(np.max(np.abs(gamma - n1)))
    tangential_residual = float(np.max(np.abs(alpha - (s + m1))))

    ratio = grid.tau / grid.kappa
    a, b_coef = (float(c) for c in np.polyfit(s, ratio, 1))
    ratio_residual = float(np.max(np.abs(ratio - (a * s + b_coef))))

    inner_nn = plane_product(grid.n_y, grid.n_z, grid.n_y, grid.n_z)
    inner_bb = plane_product(grid.b_y, grid.b_z, grid.b_y, grid.b_z)
    q = alpha ** 2 + inner_nn * beta ** 2 + inner_bb * gamma ** 2
    model = (s + m1) ** 2 + inner_bb * n1 ** 2
    rho_check = float(np.max(np.abs(np.abs(q) - np.abs(model))))
    rho = np.sqrt(np.abs(q))
    normal_len = np.sqrt(np.abs(inner_nn * beta ** 2 + inner_bb * gamma ** 2))

    is_rectifying = bool(beta_max <= tol and abs(n1) > tol and abs(a) > tol)
    return RectifyingVerdict(
        is_rectifying=is_rectifying, m1=m1, n1=n1, a=a, b_coef=b_coef,
        beta_max=beta_max, ratio_residual=ratio_residual,
        rho_check=rho_check, gamma_spread=gamma_spread,
        tangential_residual=tangential_residual,
        normal_length_residual=float(np.max(np.abs(normal_len - abs(n1)))),
        rho_spread=float(np.max(rho) - np.min(rho)),
        tau_abs_max=float(np.max(np.abs(grid.tau))), tol=float(tol))


@dataclass(frozen=True)
class ConstantInvariantFit:
    """The constant-invariant family fitted to one decomposition.

    kappa and tau are the means over the grid.  error is None, or the reason
    the family does not apply (kappa or tau not constant, or tau = 0), and
    then c_plus, c_minus and residual are None.  residual is the largest
    misfit of beta and gamma, relative to the largest |beta| or |gamma|.
    """

    holds: bool
    kappa: float
    tau: float
    c_plus: float | None = None
    c_minus: float | None = None
    residual: float | None = None
    error: str | None = None


def constant_invariant_jets(kappa, tau, m1, c_plus, c_minus, s) -> tuple[Jet3, Jet3, Jet3]:
    """(alpha, beta, gamma) of the constant-invariant family as jets at s.

    s may be a float or an array, and the parameters floats or arrays that
    broadcast against it.
    """
    x = jet_variable(s)
    plus = c_plus * jet_exp(tau * x)
    minus = c_minus * jet_exp(-tau * x)
    alpha = x + m1
    return alpha, kappa / tau ** 2 + plus + minus, -kappa / tau * alpha - plus + minus


def fit_constant_invariant(dec: FrameDecomposition,
                           verdict: RectifyingVerdict) -> ConstantInvariantFit:
    """Fit the constant-invariant family to a decomposition.

    The verdict supplies m1 and the tolerance tol.  kappa and tau must stay
    within tol of their means, relative to them (within _TOL_SAMPLED_SPREAD
    if that is larger and the grid is sampled), and tau must not vanish:
    max |tau| above tol kappa.  Then one least-squares fit of
    [beta; gamma] on the columns e^(tau s) and e^(-tau s) gives c_plus and
    c_minus.  Each column is scaled to peak at 1 on the grid, so neither
    overflows however long the grid; the scale is taken out of the
    coefficients afterwards.  The family holds when the relative residual
    is within tol too.
    """
    g, tol = dec.grid, verdict.tol
    spread = tol if g.exact else max(tol, _TOL_SAMPLED_SPREAD)
    kappa, tau = float(np.mean(g.kappa)), float(np.mean(g.tau))
    error = None
    if np.max(np.abs(g.kappa - kappa)) > spread * kappa:
        error = "curvature is not constant over the grid"
    elif np.max(np.abs(g.tau)) <= tol * kappa:
        error = "torsion vanishes over the grid, and the family needs tau != 0"
    elif np.max(np.abs(g.tau - tau)) > spread * abs(tau):
        error = "torsion is not constant over the grid"
    if error:
        return ConstantInvariantFit(False, kappa, tau, error=error)

    rates = np.column_stack([tau * g.s, -tau * g.s])
    peak = rates.max(axis=0)
    columns = np.exp(rates - peak)
    a = np.vstack([columns, columns * [-1.0, 1.0]])
    y = np.concatenate([dec.beta - kappa / tau ** 2,
                        dec.gamma + kappa / tau * (g.s + verdict.m1)])
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    with np.errstate(over="ignore"):
        c_plus, c_minus = (float(c) for c in coef * np.exp(-peak))
    if not math.isfinite(c_plus + c_minus):
        return ConstantInvariantFit(False, kappa, tau,
                                    error="the coefficients overflow at s = 0")
    scale = max(np.max(np.abs(dec.beta)), np.max(np.abs(dec.gamma)))
    residual = float(np.max(np.abs(y - a @ coef)) / scale)
    return ConstantInvariantFit(residual <= tol, kappa, tau, c_plus, c_minus, residual)
