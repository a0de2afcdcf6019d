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

# Blind fit: the |tau| window a candidate rate must lie in, the largest
# polish step relative to max(1, |tau|), the relative spacings of the
# parabola-vertex cascade, and the tau taken when no candidate is in range.
_RATE_RANGE = (1e-4, 24.0)
_POLISH_REL_MAX_STEP = 0.02
_POLISH_REL_DELTAS = (1e-3, 1e-5, 1e-7, 1e-9)
_FIXED_TAU = 1.0


class SingularFrame(Exception):
    """Defensive guard: the isotropic-plane frame matrix was singular."""


class DegenerateFit(Exception):
    """Too little data to fit (grid shorter than the parameter count)."""


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
    no rate, as constant profiles do), how many taus it scored, and the joint
    projection residual at the fitted tau; a fit at measured invariants
    leaves them unset.
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
    tau_evaluations: int = 0
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


def _stacked_basis(s: np.ndarray, tau: float):
    em = np.exp(-tau * s)
    ep = np.exp(tau * s)
    return em, ep


def _fit_c_given_invariants(s, xi, eta, kappa, tau):
    """Joint linear least squares for (c1..c4) at known kappa, tau."""
    em, ep = _stacked_basis(s, tau)
    n = s.size
    a = np.zeros((2 * n, 4))
    a[:n, 0] = em
    a[:n, 1] = s * em
    a[:n, 2] = ep
    a[:n, 3] = s * ep
    a[n:, 0] = em
    a[n:, 1] = s * em
    a[n:, 2] = -ep
    a[n:, 3] = -s * ep
    rhs = np.concatenate([xi - kappa / tau ** 2, eta])
    coef, *_ = np.linalg.lstsq(a, rhs, rcond=None)
    return coef


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

    coef = _fit_c_given_invariants(grid.s, dec.beta, dec.gamma, kappa, tau)
    return _build_normal_fit(grid.s, dec.beta, dec.gamma, kappa, tau, coef)


def _build_normal_fit(s, xi, eta, kappa, tau, coef, **diagnostics) -> NormalFit:
    c1, c2, c3, c4 = (float(v) for v in coef)
    em, ep = _stacked_basis(s, tau)
    xi_fit = (c1 + c2 * s) * em + (c3 + c4 * s) * ep + kappa / tau ** 2
    eta_fit = (c1 + c2 * s) * em - (c3 + c4 * s) * ep
    xi_residual = float(np.max(np.abs(xi_fit - xi)))
    eta_residual = float(np.max(np.abs(eta_fit - eta)))
    return NormalFit(kappa0=float(kappa), tau0=float(tau),
                     c1=c1, c2=c2, c3=c3, c4=c4,
                     xi_residual=xi_residual, eta_residual=eta_residual,
                     **diagnostics)


# at tau = 0 the first column is constant, so centering zeroes it and the
# scores come out NaN; they are reported as +inf, and no tau-0 candidate wins
@np.errstate(invalid="ignore", divide="ignore")
def _projection_scores(s, u, v, taus):
    """Joint variable-projection residuals of the split family at many taus.

    For each tau, u is fitted on {e^-tau s, s e^-tau s, 1} and v on the
    mirror {e^tau s, s e^tau s, 1}.  The 2K fits are stacked as rows and
    solved together by a QR of their columns: centering removes the constant
    column, and Gram-Schmidt with one reorthogonalization handles the other
    two.  Returns the joint squared residuals (K,) and the u and v
    coefficients (K, 3) each, constant term last.  The residual is formed
    explicitly as y - A c.
    """
    taus = np.asarray(taus, dtype=float)
    k, n = taus.size, s.size
    e = np.exp(np.multiply.outer(np.concatenate([-taus, taus]), s))
    se = s * e
    y = np.empty_like(e)
    y[:k] = u
    y[k:] = v
    e_mean, se_mean, y_mean = (a.sum(axis=1) / n for a in (e, se, y))
    x1 = e - e_mean[:, None]
    x2 = se - se_mean[:, None]
    yc = y - y_mean[:, None]
    r11 = np.sqrt(_row_dot(x1, x1))
    x1 /= r11[:, None]
    r12 = _row_dot(x1, x2)
    x2 -= r12[:, None] * x1
    extra = _row_dot(x1, x2)
    x2 -= extra[:, None] * x1
    r12 += extra
    c2 = _row_dot(x2, yc) / _row_dot(x2, x2)
    c1 = (_row_dot(x1, yc) - r12 * c2) / r11
    c0 = y_mean - c1 * e_mean - c2 * se_mean
    res = y - c0[:, None] - c1[:, None] * e - c2[:, None] * se
    rows = _row_dot(res, res)
    scores = rows[:k] + rows[k:]
    scores[np.isnan(scores)] = np.inf
    coef = np.stack([c1, c2, c0], axis=1)
    return scores, coef[:k], coef[k:]


def _row_dot(a, b):
    return np.einsum("ij,ij->i", a, b)


def _parabolic_polish(score, x0: float) -> float:
    """Refine a smooth scalar minimum by parabola-vertex steps.

    The squared projection residual is smooth in tau, so a cascade of
    parabola fits at shrinking spacing recovers the vertex to near machine
    precision; a generic bracketing minimizer stalls near sqrt(machine eps)
    relative accuracy.  A vertex may lie many spacings away (the residual is
    not quadratic at the coarse levels, and each finer level must be able to
    correct that), so a step is capped only at 2% of max(1, |tau|) and is
    taken only when it lowers the residual.  score maps an array of taus to
    their residuals; each level scores its three points in one call and the
    trial point in a second.
    """
    x = x0
    max_step = _POLISH_REL_MAX_STEP * max(1.0, abs(x0))
    for rel in _POLISH_REL_DELTAS:
        d = rel * max(1.0, abs(x))
        f_minus, f_0, f_plus = score(np.array([x - d, x, x + d]))
        denom = f_minus - 2.0 * f_0 + f_plus
        if denom <= 0.0:
            continue
        step = 0.5 * d * (f_minus - f_plus) / denom
        if abs(step) > max_step:
            step = math.copysign(max_step, step)
        if score(np.array([x + step]))[0] <= f_0:
            x = x + step
    return x


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


def fit_normal_samples(s, xi, eta) -> NormalFit:
    """Recover (kappa, tau, c1..c4) from sampled component profiles alone.

    s, xi and eta must be 1-D, of equal length and finite, and s must be
    strictly increasing; otherwise a ValueError names the offending argument.
    The model is linear in everything except tau, which is
    located by variable projection: for a candidate tau the symmetric
    combinations (xi + eta)/2 and (xi - eta)/2 are fitted linearly and tau
    minimizes the joint residual.  That residual is multimodal with a very
    narrow true basin, so the candidates come from an integral-equation
    regression (_regression_rates) that lands inside it on any grid, uniform
    or not.  The best-scoring candidate of the two-rate model is polished by
    parabola-vertex steps; a winning one-rate candidate is kept as it is,
    because on data without a linear factor the residual is flat to fourth
    order in tau and a polish would wander inside the rounding floor.

    Taus are scored in batches by one vectorized kernel: the (at most three)
    candidates in one call, each of the four polish levels in two (three
    points, then the trial step) and the final coefficients in one, so a fit
    makes at most 10 kernel calls and scores at most 20 taus.
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
    evaluations = 0

    def project(taus):
        nonlocal evaluations
        evaluations += len(taus)
        return _projection_scores(s, u, v, taus)

    def score(taus):
        return project(taus)[0]

    lo, hi = _RATE_RANGE
    candidates = [(tau, model) for tau, model in _regression_rates(s, u, v)
                  if lo <= abs(tau) <= hi]
    if candidates:
        tau, source = candidates[int(np.argmin(score([t for t, _ in candidates])))]
    else:
        # constant data: every tau reproduces them, and kappa follows below
        tau, source = _FIXED_TAU, "fixed"
    if source == "two-rate":
        tau = _parabolic_polish(score, tau)
    if abs(tau) < 1e-9:
        raise ZeroTorsion("recovered torsion is numerically zero")

    scores, cu, cv = project(np.array([tau]))
    # Constant terms of both halves estimate kappa / (2 tau^2).
    kappa = float(tau ** 2 * (cu[0, 2] + cv[0, 2]))
    # Final polish: joint linear fit of all four coefficients at fixed tau.
    coef = _fit_c_given_invariants(s, xi, eta, kappa, tau)
    return _build_normal_fit(s, xi, eta, kappa, tau, coef, tau_source=source,
                             tau_evaluations=evaluations,
                             projection_residual=float(scores[0]))
