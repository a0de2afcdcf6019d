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

For curves with constant curvature and torsion the normal-plane components
(beta, gamma) can be fitted against the closed two-parameter-pair family

    xi(s)  = (c1 + c2 s) e^(-tau s) + (c3 + c4 s) e^(tau s) + kappa / tau^2
    eta(s) = (c1 + c2 s) e^(-tau s) - (c3 + c4 s) e^(tau s)

which solves xi'' + 2 tau eta' + tau^2 xi = kappa and
eta'' + 2 tau xi' + tau^2 eta = 0 exactly.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import spline
from .dsl import BinOp, Call, Const, Expr, Neg, Var
from .frenet import DEFAULT_TOL_ADM, CurveDef, FrenetGrid, NotAdmissible, frenet_grid
from .space import ORIGIN, PGVector3, plane_det, plane_product

__all__ = [
    "SingularFrame", "DegenerateFit", "NonConstantInvariants", "ZeroTorsion",
    "FrameComponents", "FrameDecomposition", "frame_components",
    "frame_components_arrays", "RectifyingVerdict",
    "classify_rectifying", "RectifyingPropertyReport",
    "check_rectifying_properties",
    "NormalFit", "fit_normal_components", "fit_normal_samples",
    "normal_component_exprs", "normal_ode_residuals",
    "DEFAULT_TOL_EXACT", "DEFAULT_TOL_SAMPLED",
]

DEFAULT_TOL_EXACT = 1e-6
DEFAULT_TOL_SAMPLED = 1e-4

# Blind fit: the |tau| window a candidate rate must lie in to get a joint
# fit, and the tau taken when no candidate is in range.
_RATE_RANGE = (1e-4, 24.0)
_FIXED_TAU = 1.0
# A tau whose fit columns x e^(|tau| x) would pass e^300 is skipped: the fit
# squares the columns, and the squares must stay finite.
_MAX_LOG_COLUMN = 300.0


class SingularFrame(Exception):
    """Defensive guard: the isotropic-plane frame matrix was singular."""


class DegenerateFit(Exception):
    """Too little data to fit, or fitted coefficients that overflow."""


class NonConstantInvariants(Exception):
    """Curvature or torsion fails the constancy precondition of the fit."""


class ZeroTorsion(Exception):
    """The constant-invariant family is singular at tau = 0."""


@dataclass(frozen=True)
class FrameComponents:
    """Coefficients of r(s) - p0 in the frame basis {t, n, b}."""

    alpha: float
    beta: float
    gamma: float


@dataclass(frozen=True)
class FrameDecomposition:
    """Coefficient arrays of r(s) - p0 in the frame basis over one FrenetGrid."""

    grid: FrenetGrid
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray


def frame_components_arrays(grid: FrenetGrid, p0: PGVector3) -> FrameDecomposition:
    """Decompose r(s) - p0 in the frame at every point of an admissible grid."""
    if not grid.ok.all():
        raise NotAdmissible("frame decomposition needs an admissible grid")
    alpha = grid.r[:, 0] - p0.x
    py = grid.r[:, 1] - p0.y - alpha * grid.t_y
    pz = grid.r[:, 2] - p0.z - alpha * grid.t_z
    det = plane_det(grid.n_y, grid.n_z, grid.b_y, grid.b_z)
    if np.any(np.abs(det) < 0.5):
        raise SingularFrame("frame matrix in the isotropic plane is singular")
    beta = plane_det(py, pz, grid.b_y, grid.b_z) / det
    gamma = plane_det(grid.n_y, grid.n_z, py, pz) / det
    return FrameDecomposition(grid, alpha, beta, gamma)


def frame_components(curve: CurveDef, s: float, p0: PGVector3 = ORIGIN,
                     tol_adm: float = DEFAULT_TOL_ADM) -> FrameComponents:
    """Decompose r(s) - p0 in the Frenet basis at one parameter value."""
    grid = frenet_grid(curve, np.array([float(s)]), tol_adm=tol_adm, strict=True)
    dec = frame_components_arrays(grid, p0)
    return FrameComponents(float(dec.alpha[0]), float(dec.beta[0]), float(dec.gamma[0]))


@dataclass(frozen=True)
class RectifyingVerdict:
    """Outcome of the rectifying-curve test with fitted parameters.

    m1 is fitted from alpha(s) = s + m1, n1 is the mean binormal component,
    (a, b_coef) the least-squares line through tau/kappa against s.  With the
    sign convention fixed by the frame equations a = -1/n1 and
    b_coef = -m1/n1 for a true rectifying curve.
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
    tol: float


def _squared_distance(dec: FrameDecomposition, m1: float, n1: float):
    """<n,n>, <b,b>, q = |r - p0|^2 in the frame and max | |q| - |(s+m1)^2 + <b,b> n1^2| |."""
    g = dec.grid
    inner_nn = plane_product(g.n_y, g.n_z, g.n_y, g.n_z)
    inner_bb = plane_product(g.b_y, g.b_z, g.b_y, g.b_z)
    q = dec.alpha ** 2 + inner_nn * dec.beta ** 2 + inner_bb * dec.gamma ** 2
    model = (g.s + m1) ** 2 + inner_bb * n1 ** 2
    return inner_nn, inner_bb, q, float(np.max(np.abs(np.abs(q) - np.abs(model))))


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

    ratio = grid.tau / grid.kappa
    a, b_coef = (float(c) for c in np.polyfit(s, ratio, 1))
    ratio_residual = float(np.max(np.abs(ratio - (a * s + b_coef))))

    *_, rho_check = _squared_distance(dec, m1, n1)

    is_rectifying = bool(beta_max <= tol and abs(n1) > tol and abs(a) > tol)
    return RectifyingVerdict(
        is_rectifying=is_rectifying, m1=m1, n1=n1, a=a, b_coef=b_coef,
        beta_max=beta_max, ratio_residual=ratio_residual,
        rho_check=rho_check, gamma_spread=gamma_spread, tol=float(tol))


@dataclass(frozen=True)
class RectifyingPropertyReport:
    """Residual checks of the four rectifying-curve signatures.

    distance: squared distance matches |(s+m1)^2 + e n1^2| with e = <b, b>.
    tangential: alpha(s) - (s + m1) stays below tolerance.
    normal_length: | |normal part| - |n1| | stays below tolerance while the
    distance itself is non-constant.
    binormal: gamma is constant and the torsion is not identically zero.
    """

    distance_ok: bool
    distance_residual: float
    tangential_ok: bool
    tangential_residual: float
    normal_length_ok: bool
    normal_length_residual: float
    rho_spread: float
    binormal_ok: bool
    binormal_residual: float
    tau_abs_max: float
    tol: float

    @property
    def all_ok(self) -> bool:
        return (self.distance_ok and self.tangential_ok
                and self.normal_length_ok and self.binormal_ok)


def check_rectifying_properties(dec: FrameDecomposition,
                                verdict: RectifyingVerdict,
                                tol: float = 1e-5) -> RectifyingPropertyReport:
    """Verify the four rectifying-curve signatures for a positive verdict."""
    if not verdict.is_rectifying:
        raise ValueError("property report requires a positive rectifying verdict")
    s, alpha, beta, gamma = dec.grid.s, dec.alpha, dec.beta, dec.gamma
    m1, n1 = verdict.m1, verdict.n1

    inner_nn, inner_bb, q, distance_residual = _squared_distance(dec, m1, n1)

    tangential_residual = float(np.max(np.abs(alpha - (s + m1))))

    normal_sq = inner_nn * beta ** 2 + inner_bb * gamma ** 2
    normal_len = np.sqrt(np.abs(normal_sq))
    normal_length_residual = float(np.max(np.abs(normal_len - abs(n1))))
    rho = np.sqrt(np.abs(q))
    rho_spread = float(np.max(rho) - np.min(rho))

    binormal_residual = float(np.max(np.abs(gamma - n1)))
    tau_abs_max = float(np.max(np.abs(dec.grid.tau)))

    return RectifyingPropertyReport(
        distance_ok=bool(distance_residual <= tol),
        distance_residual=distance_residual,
        tangential_ok=bool(tangential_residual <= tol),
        tangential_residual=tangential_residual,
        normal_length_ok=bool(normal_length_residual <= tol
                              and rho_spread > 10.0 * tol),
        normal_length_residual=normal_length_residual,
        rho_spread=rho_spread,
        binormal_ok=bool(binormal_residual <= tol and tau_abs_max > tol),
        binormal_residual=binormal_residual,
        tau_abs_max=tau_abs_max,
        tol=float(tol),
    )


@dataclass(frozen=True)
class NormalFit:
    """Fit of normal-plane components to the constant-invariant family.

    xi_residual / eta_residual are the max absolute misfits of the two
    components.  The blind fit also records which regression model gave its
    tau (tau_source "two-rate" or "one-rate", or "fixed" when the data carry
    no rate, as constant profiles do) and projection_residual, the squared
    residual of its joint fit of c1..c4 and kappa/tau^2 at tau0; a fit at
    measured invariants leaves them unset.
    """

    kappa0: float
    tau0: float
    c1: float
    c2: float
    c3: float
    c4: float
    xi_residual: float
    eta_residual: float
    tau_source: str | None = None
    projection_residual: float | None = None


def normal_component_exprs(kappa: float, tau: float,
                           c: tuple[float, float, float, float]) -> tuple[Expr, Expr]:
    """Closed-form component profiles (xi, eta) as DSL expressions."""
    if abs(tau) < 1e-9:
        raise ZeroTorsion("component family is singular at tau = 0")
    c1, c2, c3, c4 = (float(v) for v in c)
    s = Var("s")
    em = Call("exp", Neg(BinOp("*", Const(float(tau)), s)))
    ep = Call("exp", BinOp("*", Const(float(tau)), s))
    lin_minus = BinOp("+", Const(c1), BinOp("*", Const(c2), s))
    lin_plus = BinOp("+", Const(c3), BinOp("*", Const(c4), s))
    a_term = BinOp("*", lin_minus, em)
    b_term = BinOp("*", lin_plus, ep)
    xi = BinOp("+", BinOp("+", a_term, b_term), Const(float(kappa) / float(tau) ** 2))
    eta = BinOp("-", a_term, b_term)
    return xi, eta


def normal_ode_residuals(xi, eta, kappa: float, tau: float, grid) -> tuple[float, float]:
    """Max residuals of the normal-component system on the grid.

    xi and eta are jet-evaluable (an Expr, or anything else with .jet3).
    Returns the max over the grid of |xi'' + 2 tau eta' + tau^2 xi - kappa|
    and |eta'' + 2 tau xi' + tau^2 eta|.
    """
    s = np.asarray(grid, dtype=float)
    xj = xi.jet3(s)
    ej = eta.jet3(s)
    r1 = np.max(np.abs(xj.d2 + 2.0 * tau * ej.d1 + tau ** 2 * xj.v - kappa))
    r2 = np.max(np.abs(ej.d2 + 2.0 * tau * xj.d1 + tau ** 2 * ej.v))
    return float(r1), float(r2)


def _family_columns(x, tau):
    """Stacked (2n, 5) columns of c1..c4 and kappa/tau^2 for the system [xi; eta]."""
    em, ep = np.exp(-tau * x), np.exp(tau * x)
    n = x.size
    a = np.zeros((2 * n, 5))
    a[:n, 0] = a[n:, 0] = em
    a[:n, 1] = a[n:, 1] = x * em
    a[:n, 2] = ep
    a[:n, 3] = x * ep
    a[n:, 2] = -ep
    a[n:, 3] = -x * ep
    a[:n, 4] = 1.0
    return a


def fit_normal_components(dec: FrameDecomposition,
                          tol_constancy: float = 1e-6) -> NormalFit:
    """Fit the measured (beta, gamma) components of a constant-invariant curve.

    Requires kappa and tau constant over the grid to tol_constancy relative;
    raises NonConstantInvariants otherwise and ZeroTorsion for vanishing
    torsion.  The invariants are measured from the grid, then (c1..c4) are
    fitted jointly by linear least squares.
    """
    grid = dec.grid
    if grid.s.size < 8:
        raise DegenerateFit("classification needs a grid of at least 8 points")
    kappa = float(np.mean(grid.kappa))
    tau = float(np.mean(grid.tau))
    if np.max(np.abs(grid.kappa - kappa)) > tol_constancy * abs(kappa):
        raise NonConstantInvariants("curvature is not constant over the grid")
    if np.max(np.abs(grid.tau - tau)) > tol_constancy * max(abs(tau), 1e-30):
        raise NonConstantInvariants("torsion is not constant over the grid")
    if abs(tau) < 1e-9:
        raise ZeroTorsion("component family is singular at tau = 0")

    rhs = np.concatenate([dec.beta - kappa / tau ** 2, dec.gamma])
    coef, *_ = np.linalg.lstsq(_family_columns(grid.s, tau)[:, :4], rhs, rcond=None)
    return _build_normal_fit(grid.s, dec.beta, dec.gamma, kappa, tau, coef)


def _build_normal_fit(s, xi, eta, kappa, tau, coef, **diagnostics) -> NormalFit:
    c1, c2, c3, c4 = (float(v) for v in coef)
    em, ep = np.exp(-tau * s), np.exp(tau * s)
    xi_fit = (c1 + c2 * s) * em + (c3 + c4 * s) * ep + kappa / tau ** 2
    eta_fit = (c1 + c2 * s) * em - (c3 + c4 * s) * ep
    xi_residual = float(np.max(np.abs(xi_fit - xi)))
    eta_residual = float(np.max(np.abs(eta_fit - eta)))
    return NormalFit(kappa0=float(kappa), tau0=float(tau),
                     c1=c1, c2=c2, c3=c3, c4=c4,
                     xi_residual=xi_residual, eta_residual=eta_residual,
                     **diagnostics)


def _lstsq_scaled(a, y):
    """Least squares on unit-norm columns; an all-zero column gets coefficient 0."""
    norms = np.linalg.norm(a, axis=0)
    norms[norms == 0.0] = 1.0
    coef, *_ = np.linalg.lstsq(a / norms, y, rcond=None)
    return coef / norms


def _regression_rates(s, u, v) -> list[tuple[float, str]]:
    """Candidate taus of the split family by integral-equation regression.

    u = (a + b s) e^(-tau s) + c solves (D + tau)^2 D u = 0.  Integrated three
    times it reads u = -2 tau I1(u) - tau^2 I2(u) + a0 + a1 x + a2 x^2, with
    x = s - s[0] and I1, I2 the first and second cumulative integrals; v is
    the mirror with +tau.  That is linear in (p, q) = (2 tau, tau^2) on any
    grid, so one joint least-squares fit of u and v gives the candidates p/2
    and sign(p) sqrt(q).  Without a linear factor (c2 = c4 = 0) that fit is
    rank deficient, so the one-rate form u = -tau I1(u) + a0 + a1 x gives a
    third candidate (Jacquelin, Regressions et equations integrales, 2009).

    u and v are centred first: a constant adds only a polynomial, and
    centring removes the cancellation between I1 and the x column.  I1 and I2
    are antiderivatives of the quintic interpolant sampled curves also use;
    trapezoid sums leave an O(h^2) bias in the rates.  Integration constants
    only add to the polynomial columns.  Returns (tau, model) pairs.
    """
    n = s.size
    x = s - s[0]
    y = np.column_stack([u - u.mean(), v - v.mean()])
    i2, i1 = spline.evaluate(*spline.antiderivatives(*spline.interpolate(s, y), 2), s)
    # columns: the shared I1 and I2 terms, then the u and v polynomials
    a = np.zeros((2 * n, 8))
    a[:n, 0], a[n:, 0] = i1[:, 0], -i1[:, 1]
    a[:n, 1], a[n:, 1] = i2[:, 0], i2[:, 1]
    a[:n, 2:5] = a[n:, 5:8] = np.column_stack([np.ones(n), x, x * x])
    rhs = y.T.ravel()
    p, q = (-float(c) for c in _lstsq_scaled(a, rhs)[:2])
    rates = [(0.5 * p, "two-rate")]
    if q > 0.0:
        rates.append((math.copysign(math.sqrt(q), p), "two-rate"))
    one_rate = _lstsq_scaled(a[:, [0, 2, 3, 5, 6]], rhs)[0]
    return rates + [(-float(one_rate), "one-rate")]


def _columns_in_range(x, tau) -> bool:
    """Whether tau is finite and _family_columns(x, tau) stays within
    e^_MAX_LOG_COLUMN on the grid x, which starts at 0."""
    return abs(tau) * x[-1] + math.log(max(x[-1], 1.0)) <= _MAX_LOG_COLUMN


def _joint_fit(x, y, tau):
    """The 5-column fit of y = [xi; eta] at tau: columns, coefficients, residual."""
    a = _family_columns(x, tau)
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    r = y - a @ coef
    return a, coef, r, float(r @ r)


def fit_normal_samples(s, xi, eta) -> NormalFit:
    """Recover (kappa, tau, c1..c4) from sampled component profiles alone.

    s, xi and eta must be 1-D, of equal length and finite, and s must be
    strictly increasing; otherwise a ValueError names the offending argument.
    The model is linear in c1..c4 and kappa/tau^2, so for a given tau one
    joint least-squares fit of [xi; eta] gives them all, and tau minimizes
    the residual of that fit (variable projection).  The residual is
    multimodal with a very narrow true basin, so the candidates come from an
    integral-equation regression (_regression_rates) that lands inside it on
    any grid, uniform or not.  Each candidate gets one joint fit and the
    lowest residual wins.  A two-rate winner takes one Gauss-Newton step in
    tau, kept only when it is finite and does not raise the residual; a
    one-rate winner is kept as it is, because on data without a linear
    factor the residual is flat to fourth order in tau.  A candidate or step
    whose columns overflow the fit's squares (_columns_in_range) is skipped,
    and DegenerateFit is raised when no candidate is left.

    The family's coefficients belong to s = 0, but the fit runs in
    x = s - s[0], so a grid far from 0 loses nothing to e^(tau s); the
    coefficients are mapped back to s afterwards.  DegenerateFit is raised
    when they, or the misfit, are not finite (|tau s[0]| beyond about 709).
    """
    s, xi, eta = (np.asarray(a, dtype=float) for a in (s, xi, eta))
    for name, a in (("s", s), ("xi", xi), ("eta", eta)):
        if a.ndim != 1:
            raise ValueError(f"{name} must be 1-D, got shape {a.shape}")
        if a.size != s.size:
            raise ValueError(f"{name} has {a.size} samples but s has {s.size}")
        if not np.isfinite(a).all():
            raise ValueError(f"{name} contains non-finite values")
    if np.any(np.diff(s) <= 0.0):
        raise ValueError("s must be strictly increasing")
    if s.size < 6:
        raise DegenerateFit("need at least 6 samples to recover the family")
    u = 0.5 * (xi + eta)
    v = 0.5 * (xi - eta)
    x = s - s[0]
    y = np.concatenate([xi, eta])
    lo, hi = _RATE_RANGE
    candidates = [(tau, model) for tau, model in _regression_rates(s, u, v)
                  if lo <= abs(tau) <= hi]
    if not candidates:
        # constant data: every tau reproduces them, and kappa follows from the fit
        candidates = [(_FIXED_TAU, "fixed")]
    candidates = [(tau, model) for tau, model in candidates if _columns_in_range(x, tau)]
    if not candidates:
        raise DegenerateFit(f"every candidate tau overflows e^(tau x) on a grid "
                            f"of length {x[-1]:.17g}")
    (a, coef, r, residual), tau, source = min(
        ((_joint_fit(x, y, tau), tau, model) for tau, model in candidates),
        key=lambda fit: fit[0][3])
    if source == "two-rate":
        # one Gauss-Newton step: dA/dtau c scales the e^-tau x columns by -x
        # and the e^tau x columns by x
        da_c = np.concatenate([x, x]) * (a[:, 2:4] @ coef[2:4] - a[:, :2] @ coef[:2])
        step = float(_lstsq_scaled(np.column_stack([a, da_c]), r)[-1])
        if _columns_in_range(x, tau + step):
            trial = _joint_fit(x, y, tau + step)
            if trial[3] <= residual:
                tau, (_, coef, _, residual) = tau + step, trial
    if abs(tau) < 1e-9:
        raise ZeroTorsion("recovered torsion is numerically zero")

    kappa = float(coef[4] * tau ** 2)
    # (a1 + a2 x) e^(-tau x) = (c1 + c2 s) e^(-tau s) with c2 = a2 e^(tau s0)
    # and c1 = a1 e^(tau s0) - c2 s0; c3 and c4 mirror them with -tau
    with np.errstate(over="ignore", invalid="ignore"):
        f_minus, f_plus = np.exp(tau * s[0]), np.exp(-tau * s[0])
        c2, c4 = coef[1] * f_minus, coef[3] * f_plus
        c = (coef[0] * f_minus - c2 * s[0], c2, coef[2] * f_plus - c4 * s[0], c4)
        fit = _build_normal_fit(s, xi, eta, kappa, tau, c, tau_source=source,
                                projection_residual=residual)
    if not np.isfinite([*c, fit.xi_residual, fit.eta_residual]).all():
        raise DegenerateFit(f"coefficients at s = 0 overflow for tau {tau:.17g} "
                            f"on a grid starting at s = {s[0]:.17g}")
    return fit
