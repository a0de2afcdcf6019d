"""Admissible curves and their Frenet apparatus in pseudo-Galilean 3-space.

Curves are handled in graph form r(s) = (s + x_offset, y(s), z(s)) where the
parameter s is also the arc length (the tangent always has unit x component).
A curve is admissible at s when y''(s)^2 - z''(s)^2 is bounded away from
zero; there the frame

    t = (1, y', z')
    n = (0, y'', z'') / kappa
    b = (0, eps * z'', eps * y'') / kappa

with kappa = sqrt(|y''^2 - z''^2|) and eps = sign(y''^2 - z''^2) satisfies
det(t, n, b) = 1, and the torsion is tau = (y'' z''' - y''' z'') / kappa^2.

Components y and z come either from DSL expressions (exact derivative path)
or from one quintic spline through sampled points of both (relaxed
tolerances).  The spline is pgcurves.spline: numpy code around one LAPACK
call, whose module scipy.linalg loads on the first sampled curve; commands on
exact curves never import it.

CurveDef.jets serves both paths.  A command evaluates its curve once, in
frenet_grid; check_admissible and the frame decomposition in classify read
the FrenetGrid it returns.
"""

from dataclasses import dataclass, field

import numpy as np

from . import spline
from .dsl import Expr, as_expr, eval_jet3
from .jets import Jet3, jet_sqrt
from .space import PGVector3, plane_det, plane_product

DEFAULT_TOL_ADM = 1e-12
# largest spread of x - s that curve_from_samples accepts as a constant offset
_TOL_X = 1e-9
# how far the window of a sampled curve may reach past its samples
_TOL_RANGE = 1e-12

__all__ = [
    "DEFAULT_TOL_ADM", "NotAdmissible", "SampledComponents", "CurveDef",
    "curve_from_exprs", "curve_from_samples", "FrenetData", "FrenetGrid",
    "AdmissibilityReport", "check_admissible", "frenet_grid", "frame_at",
    "torsion_det", "frenet_residuals", "reparametrize_graph",
]


class NotAdmissible(Exception):
    """The curve violates an admissibility requirement at some parameter."""


class SampledComponents:
    """y(s) and z(s) reconstructed from samples by one quintic spline fit.

    Derivatives up to third order come from the spline, so tolerances on any
    quantity built from them are relaxed relative to the exact DSL path.
    """

    def __init__(self, s: np.ndarray, y: np.ndarray, z: np.ndarray):
        s, y, z = (np.asarray(a, dtype=float) for a in (s, y, z))
        if s.ndim != 1 or s.shape != y.shape or s.shape != z.shape:
            raise ValueError("samples must be matching 1-d arrays")
        if s.size < 6:
            raise ValueError("need at least 6 samples for a quintic spline")
        if np.any(np.diff(s) <= 0):
            raise ValueError("sample parameters must be strictly increasing")
        self._knots, c = spline.interpolate(s, np.column_stack([y, z]))
        self._coefs = spline.derivatives(self._knots, c, 3)
        self.s_range = (float(s[0]), float(s[-1]))

    def jets(self, s) -> tuple[Jet3, Jet3]:
        y, z = np.moveaxis(spline.evaluate(self._knots, self._coefs, s), -1, 0)
        return Jet3(*y), Jet3(*z)


@dataclass(frozen=True)
class CurveDef:
    """A curve in graph form over [s_min, s_max].

    On the exact path y and z are Expr.  On the sampled path they are None,
    sampled holds one spline through the samples of both, and [s_min, s_max]
    must lie within the samples' range.  jets(s) serves both paths.  samples
    is the default grid resolution used by analysis and classification.
    x_offset shifts the non-isotropic coordinate: the position is
    (s + x_offset, y(s), z(s)).
    """

    y: Expr | None
    z: Expr | None
    s_min: float
    s_max: float
    samples: int = 1001
    x_offset: float = 0.0
    sampled: SampledComponents | None = None

    def __post_init__(self):
        if not -np.inf < self.s_min < self.s_max < np.inf:
            raise ValueError("require finite s_min < s_max")
        if self.samples < 2:
            raise ValueError("require samples >= 2")
        if self.sampled is not None:
            lo, hi = self.sampled.s_range
            if self.s_min < lo - _TOL_RANGE or self.s_max > hi + _TOL_RANGE:
                raise ValueError(f"window [{float(self.s_min)}, {float(self.s_max)}] "
                                 f"leaves the sample range [{lo}, {hi}]")

    @property
    def exact(self) -> bool:
        return self.sampled is None

    def grid(self) -> np.ndarray:
        return np.linspace(self.s_min, self.s_max, self.samples)

    def jets(self, s) -> tuple[Jet3, Jet3]:
        """Jets of y and z at s (scalar or array), every slot of s's shape."""
        if self.sampled is not None:
            return self.sampled.jets(s)
        shape = np.shape(s)
        return tuple(Jet3(*(_broadcast(c, shape) for c in (j.v, j.d1, j.d2, j.d3)))
                     for j in (self.y.jet3(s), self.z.jet3(s)))

    def position(self, s):
        """Coordinates (x, y, z) at parameter values s (scalar or array)."""
        yj, zj = self.jets(s)
        x = s + self.x_offset
        if isinstance(s, np.ndarray):
            return x, yj.v, zj.v
        return x, float(yj.v), float(zj.v)


def curve_from_exprs(y, z, s_min: float, s_max: float, samples: int = 1001,
                     param: str = "s", x_offset: float = 0.0) -> CurveDef:
    """Build an exact-path curve from expression sources (strings or Expr)."""
    return CurveDef(as_expr(y, param), as_expr(z, param),
                    float(s_min), float(s_max), samples, x_offset)


def curve_from_samples(s, y, z, x=None) -> CurveDef:
    """Build a sampled-path curve from arrays of parameter values and components.

    If x is given it must equal s plus a constant (graph form with the
    parameter as arc length); the constant becomes the curve's x_offset.
    """
    s = np.asarray(s, dtype=float)
    x_offset = 0.0
    if x is not None:
        x = np.asarray(x, dtype=float)
        offsets = x - s
        x_offset = float(np.mean(offsets))
        if np.max(np.abs(offsets - x_offset)) > _TOL_X:
            raise ValueError("x must equal the parameter plus a constant; "
                             "reparametrize the curve first")
    return CurveDef(None, None, float(s[0]), float(s[-1]), int(s.size), x_offset,
                    SampledComponents(s, y, z))


@dataclass(frozen=True)
class FrenetData:
    """Frame, orientation sign and invariants of a curve at one parameter."""

    s: float
    t: PGVector3
    n: PGVector3
    b: PGVector3
    eps: float
    kappa: float
    tau: float


@dataclass(frozen=True)
class FrenetGrid:
    """Frame apparatus evaluated on a parameter grid (vectorized).

    ok marks admissible points (|disc| >= tol_adm); frame and invariant rows
    where ok is False hold NaN.  r (shape (N, 3)) and disc = y''^2 - z''^2
    are never masked.  res_t, res_n, res_b are the Euclidean norms of the
    frame-equation residuals t' - kappa n, n' - tau b, b' - tau n, with frame
    derivatives obtained by differentiating the frame component formulas
    themselves.  exact records whether the curve has expression components.
    """

    s: np.ndarray
    r: np.ndarray
    disc: np.ndarray
    ok: np.ndarray
    tol_adm: float
    exact: bool
    eps: np.ndarray
    kappa: np.ndarray
    tau: np.ndarray
    t_y: np.ndarray
    t_z: np.ndarray
    n_y: np.ndarray
    n_z: np.ndarray
    b_y: np.ndarray
    b_z: np.ndarray
    res_t: np.ndarray
    res_n: np.ndarray
    res_b: np.ndarray

    def frame(self, i: int) -> FrenetData:
        if not self.ok[i]:
            raise NotAdmissible(f"curve not admissible at s={self.s[i]!r}")
        return FrenetData(
            s=float(self.s[i]),
            t=PGVector3(1.0, float(self.t_y[i]), float(self.t_z[i])),
            n=PGVector3(0.0, float(self.n_y[i]), float(self.n_z[i])),
            b=PGVector3(0.0, float(self.b_y[i]), float(self.b_z[i])),
            eps=float(self.eps[i]),
            kappa=float(self.kappa[i]),
            tau=float(self.tau[i]),
        )


@dataclass(frozen=True)
class AdmissibilityReport:
    """Grid admissibility check: violations and constant-sign segments."""

    admissible: bool
    tol: float
    violations: list = field(default_factory=list)  # (s, y''^2 - z''^2) pairs
    segments: list = field(default_factory=list)    # (s_lo, s_hi) spans


def _broadcast(value, shape):
    arr = np.asarray(value, dtype=float)
    if arr.shape != shape:
        arr = np.broadcast_to(arr, shape).copy()
    return arr


def frenet_grid(curve: CurveDef, s=None, tol_adm: float = DEFAULT_TOL_ADM,
                strict: bool = True) -> FrenetGrid:
    """Evaluate the full Frenet apparatus on a grid of parameter values.

    With strict=True any inadmissible point raises NotAdmissible; otherwise
    such points are NaN-masked and flagged in the ok array.
    """
    if s is None:
        s = curve.grid()
    s = np.atleast_1d(np.asarray(s, dtype=float))
    yj, zj = curve.jets(s)

    # y''^2 - z''^2: its sign is eps and its root magnitude is kappa
    d = plane_product(yj.d2, zj.d2, yj.d2, zj.d2)
    ok = np.abs(d) >= tol_adm
    if strict and not ok.all():
        bad = s[~ok]
        raise NotAdmissible(
            f"y''^2 - z''^2 below {tol_adm:g} at {bad.size} grid point(s), "
            f"first at s={bad[0]!r}")

    d_safe = np.where(ok, d, 1.0)
    eps = np.sign(d_safe)

    # First-order jets of the frame component formulas.  Only the value and
    # d1 slots are meaningful; d2/d3 are padding for the Jet3 arithmetic.
    zero = np.zeros_like(d_safe)
    y2 = Jet3(yj.d2, yj.d3, zero, zero)
    z2 = Jet3(zj.d2, zj.d3, zero, zero)
    d_jet = Jet3(d_safe, 2.0 * plane_product(yj.d2, zj.d2, yj.d3, zj.d3), zero, zero)
    kappa = jet_sqrt(eps * d_jet)
    n_yj = y2 / kappa
    n_zj = z2 / kappa
    b_yj = (eps * z2) / kappa
    b_zj = (eps * y2) / kappa

    tau = plane_det(yj.d2, zj.d2, yj.d3, zj.d3) / (eps * d_safe)

    res_t = np.hypot(yj.d2 - kappa.v * n_yj.v, zj.d2 - kappa.v * n_zj.v)
    res_n = np.hypot(n_yj.d1 - tau * b_yj.v, n_zj.d1 - tau * b_zj.v)
    res_b = np.hypot(b_yj.d1 - tau * n_yj.v, b_zj.d1 - tau * n_zj.v)

    nan = np.nan

    def _mask(arr):
        return np.where(ok, arr, nan)

    return FrenetGrid(
        s=s,
        r=np.column_stack([s + curve.x_offset, yj.v, zj.v]),
        disc=d,
        ok=ok,
        tol_adm=tol_adm,
        exact=curve.exact,
        eps=_mask(eps),
        kappa=_mask(kappa.v),
        tau=_mask(tau),
        t_y=_mask(yj.d1),
        t_z=_mask(zj.d1),
        n_y=_mask(n_yj.v),
        n_z=_mask(n_zj.v),
        b_y=_mask(b_yj.v),
        b_z=_mask(b_zj.v),
        res_t=_mask(res_t),
        res_n=_mask(res_n),
        res_b=_mask(res_b),
    )


def frame_at(curve: CurveDef, s: float, tol_adm: float = DEFAULT_TOL_ADM) -> FrenetData:
    """Frenet frame, orientation sign, curvature and torsion at one point."""
    grid = frenet_grid(curve, np.array([float(s)]), tol_adm=tol_adm, strict=True)
    return grid.frame(0)


def torsion_det(curve: CurveDef, s, tol_adm: float = DEFAULT_TOL_ADM):
    """Torsion computed from det(r', r'', r''') / kappa^2.

    Algebraically identical to the torsion of frame_at but evaluated through
    the determinant, so the two serve as independent implementations of the
    same invariant.  Accepts a scalar or an array of parameter values.
    """
    yj, zj = curve.jets(np.atleast_1d(np.asarray(s, dtype=float)))
    d = plane_product(yj.d2, zj.d2, yj.d2, zj.d2)
    if np.any(np.abs(d) < tol_adm):
        raise NotAdmissible("curve not admissible at requested point(s)")
    kappa = np.sqrt(np.abs(d))
    # Cofactor expansion of det(r', r'', r''') along the first column;
    # x components of r'' and r''' vanish identically in graph form.
    tau = (yj.d2 * zj.d3 - zj.d2 * yj.d3) / (kappa * kappa)
    return float(tau[0]) if np.ndim(s) == 0 else tau


def frenet_residuals(curve: CurveDef, s, tol_adm: float = DEFAULT_TOL_ADM):
    """Euclidean norms of t' - kappa n, n' - tau b, b' - tau n at s."""
    scalar = np.ndim(s) == 0
    grid = frenet_grid(curve, np.atleast_1d(np.asarray(s, dtype=float)),
                       tol_adm=tol_adm, strict=True)
    if scalar:
        return float(grid.res_t[0]), float(grid.res_n[0]), float(grid.res_b[0])
    return grid.res_t, grid.res_n, grid.res_b


def check_admissible(grid: FrenetGrid) -> AdmissibilityReport:
    """Report points of a strict=False grid where |y''^2 - z''^2| < tol_adm.

    The curve is accepted only when no point violates the bound and the sign
    of y''^2 - z''^2 is constant across the grid; otherwise the report lists
    the maximal constant-sign admissible segments.
    """
    s, d, ok = grid.s, grid.disc, grid.ok
    violations = list(zip(s[~ok].tolist(), d[~ok].tolist()))

    # a segment breaks at a violation and where the sign of d flips
    breaks = np.diff(np.sign(d)) != 0
    starts = ok & np.concatenate([[True], ~ok[:-1] | breaks])
    ends = ok & np.concatenate([~ok[1:] | breaks, [True]])
    segments = list(zip(s[starts].tolist(), s[ends].tolist()))

    admissible = not violations and len(segments) == 1
    return AdmissibilityReport(admissible=admissible, tol=grid.tol_adm,
                               violations=violations, segments=segments)


def reparametrize_graph(x, y, z, t_range, samples: int = 1001,
                        param: str = "t", tol: float = 1e-12) -> CurveDef:
    """Re-express a curve (x(t), y(t), z(t)) in graph form with x as parameter.

    x must be strictly monotone with derivative bounded away from zero on
    t_range; the monotone map t -> x(t) is inverted per grid point by
    safeguarded Newton iteration with a bisection fallback.  The result is a
    sampled-path curve over s = x.
    """
    x_e, y_e, z_e = (as_expr(src, param) for src in (x, y, z))
    t0, t1 = float(t_range[0]), float(t_range[1])
    if not t0 < t1:
        raise ValueError("require t_range[0] < t_range[1]")

    t_fine = np.linspace(t0, t1, 4 * samples + 1)
    xdot = eval_jet3(x_e, t_fine).d1
    if np.any(xdot == 0.0) or np.any(np.sign(xdot) != np.sign(xdot[0])):
        raise NotAdmissible("dx/dt vanishes or changes sign on the range")
    if np.min(np.abs(xdot)) < 1e-9:
        raise NotAdmissible("dx/dt too close to zero for a stable inversion")

    x_lo = float(eval_jet3(x_e, np.array([t0])).v[0])
    x_hi = float(eval_jet3(x_e, np.array([t1])).v[0])
    increasing = x_hi > x_lo
    s_min, s_max = (x_lo, x_hi) if increasing else (x_hi, x_lo)

    s_grid = np.linspace(s_min, s_max, samples)
    t_sol = np.empty_like(s_grid)
    t_guess = t0 if increasing else t1
    for i, target in enumerate(s_grid):
        t_sol[i] = _invert_monotone(x_e, target, t0, t1, t_guess, increasing, tol)
        t_guess = t_sol[i]

    y_vals = eval_jet3(y_e, t_sol).v
    z_vals = eval_jet3(z_e, t_sol).v
    return curve_from_samples(s_grid, _broadcast(y_vals, s_grid.shape),
                              _broadcast(z_vals, s_grid.shape))


def _invert_monotone(x_e, target, t_lo, t_hi, guess, increasing, tol):
    lo, hi = t_lo, t_hi
    t = min(max(guess, lo), hi)
    for _ in range(100):
        jet = x_e.jet3(t)
        f = jet.v - target
        if abs(f) <= tol * max(1.0, abs(target)):
            return t
        if (f > 0) == increasing:
            hi = t
        else:
            lo = t
        step_ok = jet.d1 != 0.0
        if step_ok:
            t_new = t - f / jet.d1
            if not (lo < t_new < hi):
                t_new = 0.5 * (lo + hi)
        else:
            t_new = 0.5 * (lo + hi)
        t = t_new
    jet = x_e.jet3(t)
    if abs(jet.v - target) > 1e-9 * max(1.0, abs(target)):
        raise NotAdmissible(f"could not invert x(t) at x={target!r}")
    return t
