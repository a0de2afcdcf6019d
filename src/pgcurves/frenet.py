"""Admissible curves and their Frenet apparatus in pseudo-Galilean 3-space.

Curves are handled in graph form r(s) = (s + x_offset, y(s), z(s)) where the
parameter s is also the arc length (the tangent always has unit x component).
A curve is admissible at s when y''(s)^2 - z''(s)^2 is bounded away from
zero; there the frame

    t = (1, y', z')
    n = (0, y'', z'') / kappa
    b = (0, eps * n_z, eps * n_y)

with kappa = sqrt(|y''^2 - z''^2|) and eps = sign(y''^2 - z''^2) satisfies
det(t, n, b) = 1, and the torsion is tau = (y'' z''' - y''' z'') / kappa^2.
frenet_grid measures the frame-equation residuals with the closed forms
kappa' = eps (y'' y''' - z'' z''') / kappa and
n' = ((0, y''', z''') - kappa' n) / kappa, b' = (0, eps * n_z', eps * n_y').

Components y and z come either from DSL expressions (exact derivative path)
or from one quintic spline through sampled points of both (relaxed
tolerances).  The spline is pgcurves.spline: numpy code around one LAPACK
call, dgbsv, whose extension module loads from its file on the first sampled
curve; no command imports a scipy subpackage.

CurveDef.jets serves both paths.  A command evaluates each point of its
curve once, in frenet_grid; check_admissible and the frame decomposition in
classify read the FrenetGrid it returns.  frenet_grid allocates the grid's
arrays once and fills them a block of _BLOCK (8,192) points at a time: it
evaluates the jets on the block, writes the closed forms into the block's
rows and sets its inadmissible rows to NaN in place, so its temporaries are
those of one block, whatever the size of the grid.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import spline
from .dsl import Expr, as_expr
from .jets import DomainError, Jet3
from .space import plane_det, plane_product

DEFAULT_TOL_ADM = 1e-12
# largest spread of x - s that curve_from_samples accepts as a constant offset
_TOL_X = 1e-9
# how far the window of a sampled curve may reach past its samples
_TOL_RANGE = 1e-12
# points per block of frenet_grid.  Each temporary of a block, 64 KiB, stays
# under glibc's 128 KiB mmap threshold; at 200,001 points 8,192 was faster
# than 2,048 and 4,096 and held 1 MiB less than 16,384 at the peak
_BLOCK = 8192

__all__ = [
    "DEFAULT_TOL_ADM", "NotAdmissible", "SampleError", "SampledComponents", "CurveDef",
    "curve_from_exprs", "curve_from_samples", "FrenetGrid",
    "AdmissibilityReport", "check_admissible", "frenet_grid", "torsion_det",
]


class NotAdmissible(Exception):
    """The curve violates an admissibility requirement at some parameter."""


class SampleError(ValueError):
    """Samples that define no sampled curve; row indexes the offending sample.

    row is None when no one sample is at fault (too few samples).
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


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
            raise SampleError("need at least 6 samples for a quintic spline")
        finite = np.isfinite(s) & np.isfinite(y) & np.isfinite(z)
        if not finite.all():
            raise SampleError("spline samples must be finite", int(np.argmin(finite)))
        rising = np.diff(s) > 0
        if not rising.all():
            raise SampleError("sample parameters must be strictly increasing",
                              int(np.argmin(rising)) + 1)
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


def curve_from_exprs(y, z, s_min: float, s_max: float, samples: int = 1001) -> CurveDef:
    """Build an exact-path curve from expression sources (strings or Expr) in s."""
    return CurveDef(as_expr(y), as_expr(z), float(s_min), float(s_max), samples)


def curve_from_samples(s, y, z, x=None) -> CurveDef:
    """Build a sampled-path curve from arrays of parameter values and components.

    If x is given it must equal s plus a constant (graph form with the
    parameter as arc length); the constant becomes the curve's x_offset.
    Bad samples raise SampleError, whose row is the first non-finite or
    non-increasing sample, or the x farthest from s plus the mean offset.
    """
    s = np.asarray(s, dtype=float)
    sampled = SampledComponents(s, y, z)
    x_offset = 0.0
    if x is not None:
        offsets = np.asarray(x, dtype=float) - s
        x_offset = float(np.mean(offsets))
        deviation = np.abs(offsets - x_offset)
        if not np.max(deviation) <= _TOL_X:
            finite = np.isfinite(offsets)
            row = np.argmin(finite) if not finite.all() else np.argmax(deviation)
            raise SampleError("x must equal s plus a constant: curves are in graph form",
                              int(row))
    return CurveDef(None, None, float(s[0]), float(s[-1]), int(s.size), x_offset, sampled)


@dataclass(frozen=True)
class FrenetGrid:
    """Frame apparatus evaluated on a parameter grid (vectorized).

    ok marks admissible points (|disc| >= tol_adm); frame and invariant rows
    where ok is False hold NaN.  r (shape (N, 3)) and disc = y''^2 - z''^2
    are never masked.  res_t, res_n, res_b are the Euclidean norms of the
    frame-equation residuals t' - kappa n, n' - tau b, b' - tau n, with n'
    and b' from their closed forms (module docstring), not from the frame
    equations.  exact records whether the curve has expression components.
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


# the FrenetGrid fields that hold NaN where ok is False
_MASKED = ("eps", "kappa", "tau", "t_y", "t_z", "n_y", "n_z", "b_y", "b_z",
           "res_t", "res_n", "res_b")


def frenet_grid(curve: CurveDef, s=None, tol_adm: float = DEFAULT_TOL_ADM,
                strict: bool = True) -> FrenetGrid:
    """Evaluate the full Frenet apparatus on a grid of parameter values.

    With strict=True any inadmissible point raises NotAdmissible; otherwise
    such points are NaN-masked and flagged in the ok array.  A y''^2 - z''^2
    that is not finite raises DomainError, strict or not, and so does a
    kappa' or tau that is not finite at an admissible point; the message
    names the first such s.  tol_adm must be finite and positive, or
    ValueError is raised.  The grid's arrays are allocated once and filled
    _BLOCK points at a time.
    """
    if not 0.0 < tol_adm < math.inf:
        raise ValueError(f"tolerance tol_adm must be finite and positive, got {tol_adm}")
    if s is None:
        s = curve.grid()
    s = np.atleast_1d(np.asarray(s, dtype=float))
    n = s.size
    grid = FrenetGrid(s=s, r=np.empty((n, 3)), disc=np.empty(n), ok=np.empty(n, dtype=bool),
                      tol_adm=tol_adm, exact=curve.exact,
                      **{name: np.empty(n) for name in _MASKED})
    for start in range(0, n, _BLOCK):
        _fill_rows(curve, grid, slice(start, start + _BLOCK))
    # after the loop, so the message counts the whole grid
    if strict and not grid.ok.all():
        bad = s[~grid.ok]
        raise NotAdmissible(
            f"y''^2 - z''^2 below {tol_adm:g} at {bad.size} grid point(s), "
            f"first at s={float(bad[0])!r}")
    return grid


def _fill_rows(curve: CurveDef, grid: FrenetGrid, rows: slice):
    """Evaluate the curve at grid.s[rows] and write the apparatus into the
    same rows of the grid's arrays, NaN where the point is inadmissible."""
    s = grid.s[rows]
    yj, zj = curve.jets(s)
    r = grid.r[rows]
    np.add(s, curve.x_offset, out=r[:, 0])
    r[:, 1], r[:, 2] = yj.v, zj.v

    # y''^2 - z''^2: its sign is eps and its root magnitude is kappa.  Past
    # about 1e154 its squares overflow, and 2 y'' y''' (in kappa') and
    # y'' z''' - y''' z'' (in tau) can overflow where d does not; the check
    # below names the first s where one of the three is not finite
    d = grid.disc[rows]
    with np.errstate(over="ignore", invalid="ignore"):
        d[...] = plane_product(yj.d2, zj.d2, yj.d2, zj.d2)
        ok = np.greater_equal(np.abs(d), grid.tol_adm, out=grid.ok[rows])
        d_safe = np.where(ok, d, 1.0)
        eps = np.sign(d_safe, out=grid.eps[rows])

        # kappa = sqrt(eps d) and kappa' = (eps d)' / (2 kappa), in the order
        # of operations of the Jet3 reference in tests/test_frenet.py:
        # bitwise equal
        kappa = np.sqrt(eps * d_safe, out=grid.kappa[rows])
        kappa_d1 = (0.5 / kappa) * (eps * (2.0 * plane_product(yj.d2, zj.d2, yj.d3, zj.d3)))
        tau = np.divide(plane_det(yj.d2, zj.d2, yj.d3, zj.d3), eps * d_safe,
                        out=grid.tau[rows])
    # kappa' and tau count only at admissible points
    finite = np.isfinite(d) & (np.isfinite(kappa_d1) & np.isfinite(tau) | ~ok)
    if not finite.all():
        i = np.argmin(finite)
        name = ("y''^2 - z''^2" if not np.isfinite(d[i])
                else "kappa'" if not np.isfinite(kappa_d1[i]) else "tau")
        raise DomainError(f"{name} is not finite from s={float(s[i])!r}")
    n_y = np.divide(yj.d2, kappa, out=grid.n_y[rows])
    n_z = np.divide(zj.d2, kappa, out=grid.n_z[rows])
    n_y_d1 = (yj.d3 - n_y * kappa_d1) / kappa
    n_z_d1 = (zj.d3 - n_z * kappa_d1) / kappa
    # b = eps (n_z, n_y) and b' = eps (n_z', n_y'): eps = +-1, so the
    # products are exact
    b_y = np.multiply(eps, n_z, out=grid.b_y[rows])
    b_z = np.multiply(eps, n_y, out=grid.b_z[rows])

    np.hypot(yj.d2 - kappa * n_y, zj.d2 - kappa * n_z, out=grid.res_t[rows])
    np.hypot(n_y_d1 - tau * b_y, n_z_d1 - tau * b_z, out=grid.res_n[rows])
    np.hypot(eps * n_z_d1 - tau * n_y, eps * n_y_d1 - tau * n_z, out=grid.res_b[rows])
    grid.t_y[rows], grid.t_z[rows] = yj.d1, zj.d1

    bad = ~ok
    if bad.any():
        for name in _MASKED:
            getattr(grid, name)[rows][bad] = np.nan


def torsion_det(curve: CurveDef, s):
    """Torsion computed from det(r', r'', r''') / kappa^2.

    Algebraically identical to the torsion of frenet_grid but evaluated
    through the determinant, so the two serve as independent
    implementations of the same invariant.  Accepts a scalar or an array of
    parameter values.
    """
    yj, zj = curve.jets(np.atleast_1d(np.asarray(s, dtype=float)))
    d = plane_product(yj.d2, zj.d2, yj.d2, zj.d2)
    if np.any(np.abs(d) < DEFAULT_TOL_ADM):
        raise NotAdmissible("curve not admissible at requested point(s)")
    kappa = np.sqrt(np.abs(d))
    # Cofactor expansion of det(r', r'', r''') along the first column;
    # x components of r'' and r''' vanish identically in graph form.
    tau = (yj.d2 * zj.d3 - zj.d2 * yj.d3) / (kappa * kappa)
    return float(tau[0]) if np.ndim(s) == 0 else tau


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
