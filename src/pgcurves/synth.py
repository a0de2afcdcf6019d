"""Curve synthesis from prescribed curvature and torsion profiles.

The frame equations

    r' = t,   t' = kappa n,   n' = tau b,   b' = tau n

fix a curve once its start frame is fixed, and synthesis always starts from
the canonical frame t = (1, 0, 0), n = (0, 1, 0), b = (0, 0, 1); only the
start position r_0 varies.  The x components stay fixed (t_x = 1,
n_x = b_x = 0, r_x = r_x(s_0) + s - s_0) and (n, b) turns by a hyperbolic
rotation of the isotropic plane through theta(s) = integral of tau:

    n = (cosh theta, sinh theta),   b = (sinh theta, cosh theta).

Synthesis therefore needs three quadratures, not a general ODE solve:
theta from tau, then t = integral of kappa n, then r = r_0 + integral of t.
The profiles are evaluated once, vectorized, on the whole nodes and the half
nodes of an equal-step grid; each quadrature is cumulative Simpson on the
whole nodes plus the matching parabola rule on the half nodes, so the scheme
is fourth order in the step.

The quantities n_y^2 - n_z^2, b_y^2 - b_z^2, n_y b_y - n_z b_z and the frame
determinant n_y b_z - n_z b_y are constants of motion of the exact flow.
The closed-form rotation keeps them to rounding by construction, whatever
the step.

For a rectifying curve with parameters (m1, n1) the torsion profile is
forced to tau(s) = -(s + m1) kappa(s) / n1 and the start position is placed
at r = (s0 + m1) t + n1 b, which makes r - (s + m1) t - n1 b a constant of
motion of the exact flow.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .dsl import BinOp, Const, DomainError, Expr, Neg, Var, as_expr
from .frenet import CurveDef, FrenetGrid, curve_from_samples
from .space import ORIGIN, PGVector3, plane_det, plane_product

__all__ = [
    "InvalidProfile", "InvariantProfile", "FrenetTrajectory", "integrate_frenet",
    "synth_rectifying", "rectifying_drift",
]


class InvalidProfile(Exception):
    """The prescribed curvature profile is not positive on the range."""


@dataclass(frozen=True)
class InvariantProfile:
    """Curvature and torsion profiles kappa(s) > 0, tau(s) over [s_min, s_max]."""

    kappa: Expr
    tau: Expr
    s_min: float
    s_max: float

    def __post_init__(self):
        if not -math.inf < self.s_min < self.s_max < math.inf:
            raise ValueError("require finite s_min < s_max")


def profile(kappa, tau, s_min: float, s_max: float) -> InvariantProfile:
    """Build a profile from expression sources (strings, numbers or Expr)."""
    return InvariantProfile(as_expr(kappa), as_expr(tau), float(s_min), float(s_max))


@dataclass(frozen=True)
class FrenetTrajectory:
    """Sampled output of the frame integration.

    r has shape (N, 3); the frame arrays have shape (N,).  to_curve builds a
    spline-backed CurveDef from the position samples, optionally restricted
    to an interior window (spline end effects die off away from the ends).
    """

    s: np.ndarray
    r: np.ndarray
    t_y: np.ndarray
    t_z: np.ndarray
    n_y: np.ndarray
    n_z: np.ndarray
    b_y: np.ndarray
    b_z: np.ndarray

    def conserved(self) -> dict[str, np.ndarray]:
        """Constants of motion of the exact flow, sampled along the trajectory."""
        n, b = (self.n_y, self.n_z), (self.b_y, self.b_z)
        return {"nn": plane_product(*n, *n), "bb": plane_product(*b, *b),
                "nb": plane_product(*n, *b), "det": plane_det(*n, *b)}

    def to_curve(self, s_min: float | None = None,
                 s_max: float | None = None) -> CurveDef:
        """Spline-backed curve over [s_min, s_max] (default: the full range).

        curve_from_samples chooses the knots; the default grid has one point
        per knot inside the window, and at least 8.  A window that leaves
        the integrated range raises ValueError.
        """
        curve = curve_from_samples(self.s, self.r[:, 1], self.r[:, 2], x=self.r[:, 0])
        s_min = curve.s_min if s_min is None else float(s_min)
        s_max = curve.s_max if s_max is None else float(s_max)
        knots = self.s[curve.sampled.rows]
        inside = int(np.count_nonzero((knots >= s_min) & (knots <= s_max)))
        return replace(curve, s_min=s_min, s_max=s_max, samples=max(8, inside))


def _antiderivative(f: np.ndarray, h: float) -> np.ndarray:
    """Integral of f from the first node, on the interleaved node/half-node grid.

    f holds samples at s_0, s_0 + h/2, s_0 + h, ... along axis 0.  Values at
    the whole nodes accumulate Simpson's rule step by step; each half node
    adds the exact integral of the step's interpolating parabola over its
    first half, h/24 (5 f_0 + 8 f_m - f_1), to the node before it.
    """
    f0, fm, f1 = f[0:-2:2], f[1::2], f[2::2]
    out = np.empty_like(f)
    out[0] = 0.0
    np.cumsum((h / 6.0) * (f0 + 4.0 * fm + f1), axis=0, out=out[2::2])
    out[1::2] = out[0:-2:2] + (h / 24.0) * (5.0 * f0 + 8.0 * fm - f1)
    return out


def integrate_frenet(p: InvariantProfile, step: float = 1e-3,
                     r0: PGVector3 = ORIGIN) -> FrenetTrajectory:
    """Integrate the frame equations over the profile's range.

    The curve starts at s_min from the position r0 with the canonical frame.
    The step is a target: the range is divided into a whole number of equal
    steps no longer than requested, so halving the requested step exactly
    doubles the step count.  Raises ValueError for a step that is not finite
    and positive, MemoryError when the range holds more steps than an array
    can index, InvalidProfile when kappa is not positive on the sample grid,
    and DomainError when a profile cannot be evaluated on the range or the
    position or frame overflows.

    Since b = (sinh theta, cosh theta) = (n_z, n_y), the trajectory's b_y
    and b_z are its n_z and n_y arrays themselves, not copies, and a writer
    that shares columns by identity formats them once.
    """
    if not 0.0 < step < math.inf:
        raise ValueError("step must be finite and positive")

    length = p.s_max - p.s_min
    # ceil overflows on infinitely many steps, arange on too many to index
    try:
        n_steps = max(1, int(math.ceil(length / step - 1e-9)))
        h = length / n_steps
        nodes = p.s_min + (0.5 * h) * np.arange(2 * n_steps + 1)
    except (OverflowError, ValueError):
        raise MemoryError(f"step {step!r} over the window [{p.s_min!r}, {p.s_max!r}] "
                          f"needs {length / step:.3g} steps") from None
    nodes[-1] = p.s_max
    kappa = np.broadcast_to(p.kappa.jet3(nodes).v, nodes.shape)
    if np.any(kappa[::2] <= 0.0):
        raise InvalidProfile("kappa must be positive on the whole range")
    tau = np.broadcast_to(p.tau.jet3(nodes).v, nodes.shape)

    # a fast-growing theta overflows cosh and sinh; the check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        theta = _antiderivative(tau, h)
        # column-major, so each quadrature runs down contiguous columns
        n = np.array([np.cosh(theta), np.sinh(theta)]).T
        t = _antiderivative(kappa[:, None] * n, h)
        yz = np.array([r0.y, r0.z]) + _antiderivative(t, h)

    s = nodes[::2]
    finite = np.isfinite(np.hstack([yz[::2], t[::2], n[::2]])).all(axis=1)
    if not finite.all():
        raise DomainError("synthesized position or frame is not finite "
                          f"from s={float(s[np.argmin(finite)])!r}")
    r = np.column_stack([r0.x + (s - p.s_min), yz[::2]])
    n_y, n_z = n[::2, 0], n[::2, 1]
    return FrenetTrajectory(s=s, r=r, t_y=t[::2, 0], t_z=t[::2, 1],
                            n_y=n_y, n_z=n_z, b_y=n_z, b_z=n_y)


def synth_rectifying(m1: float, n1: float, kappa, s_range,
                     step: float = 1e-3, margin: float = 0.0) -> FrenetTrajectory:
    """Synthesize a rectifying curve with prescribed parameters.

    The torsion profile is tau(s) = -(s + m1) kappa(s) / n1 and the start
    position (s0 + m1) t + n1 b zeroes the conserved vector
    r - (s + m1) t - n1 b from the outset.  A nonzero margin extends the
    integration range on both sides, which is useful when the output will be
    spline-differentiated near the window ends.
    """
    if n1 == 0.0:
        raise ValueError("n1 must be nonzero")
    kappa_e = as_expr(kappa)
    lo, hi = float(s_range[0]) - margin, float(s_range[1]) + margin
    tau_e = Neg(BinOp("/",
                      BinOp("*", BinOp("+", Var("s"), Const(float(m1))), kappa_e),
                      Const(float(n1))))
    p = InvariantProfile(kappa_e, tau_e, lo, hi)
    return integrate_frenet(p, step=step, r0=PGVector3(lo + m1, 0.0, float(n1)))


def rectifying_drift(traj: FrenetTrajectory | FrenetGrid, m1: float, n1: float) -> np.ndarray:
    """Componentwise spread of r - (s + m1) t - n1 b over a trajectory or grid."""
    lam = traj.s + m1
    fx = traj.r[:, 0] - lam
    fy = traj.r[:, 1] - lam * traj.t_y - n1 * traj.b_y
    fz = traj.r[:, 2] - lam * traj.t_z - n1 * traj.b_z
    return np.array([float(np.ptp(f)) for f in (fx, fy, fz)])
