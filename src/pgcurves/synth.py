"""Curve synthesis from prescribed curvature and torsion profiles.

The frame equations

    r' = t,   t' = kappa n,   n' = tau b,   b' = tau n

leave the x components fixed (t_x = 1, n_x = b_x = 0, r_x = r_x(s_0) + s - s_0)
and turn (n, b) into a hyperbolic rotation of the isotropic plane by
theta(s) = integral of tau:

    n = n_0 cosh theta + b_0 sinh theta,   b = b_0 cosh theta + n_0 sinh theta.

Synthesis therefore needs three quadratures, not a general ODE solve:
theta from tau, then t = t_0 + integral of kappa n, then r = r_0 + integral
of t.  The profiles are evaluated once, vectorized, on the whole nodes and
the half nodes of an equal-step grid; each quadrature is cumulative Simpson
on the whole nodes plus the matching parabola rule on the half nodes, so the
scheme is fourth order in the step.

The quantities n_y^2 - n_z^2, b_y^2 - b_z^2, n_y b_y - n_z b_z and the frame
determinant n_y b_z - n_z b_y are constants of motion of the exact flow for
any frame-compatible start.  The closed-form rotation keeps them to rounding
by construction, whatever the step.

For a rectifying curve with parameters (m1, n1) the torsion profile is
forced to tau(s) = -(s + m1) kappa(s) / n1 and the start position is placed
at r = (s0 + m1) t + n1 b, which makes r - (s + m1) t - n1 b a constant of
motion of the exact flow.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .classify import normal_component_exprs
from .dsl import BinOp, Const, Expr, Neg, Var, as_expr
from .frenet import CurveDef, FrenetGrid, curve_from_samples
from .space import PGVector3, plane_det, plane_product

__all__ = [
    "InvalidProfile", "BadInitialFrame", "InvariantProfile", "FrenetState",
    "FrenetTrajectory", "canonical_state", "integrate_frenet",
    "synth_rectifying", "synth_normal_components", "NormalComponentSamples",
    "rectifying_drift",
]

_FRAME_TOL = 1e-12
_KNOT_SPACING = 4e-3


class InvalidProfile(Exception):
    """The prescribed curvature profile is not positive on the range."""


class BadInitialFrame(Exception):
    """The initial frame violates the frame invariants."""


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
class FrenetState:
    """Integration state: position and frame at one parameter value."""

    s: float
    r: PGVector3
    t: PGVector3
    n: PGVector3
    b: PGVector3


def canonical_state(s: float = 0.0, r: PGVector3 = PGVector3(0.0, 0.0, 0.0)) -> FrenetState:
    """Frame t=(1,0,0), n=(0,1,0), b=(0,0,1); satisfies all invariants exactly."""
    return FrenetState(s=float(s), r=r,
                       t=PGVector3(1.0, 0.0, 0.0),
                       n=PGVector3(0.0, 1.0, 0.0),
                       b=PGVector3(0.0, 0.0, 1.0))


def _validate_state(state: FrenetState):
    if state.t.x != 1.0:
        raise BadInitialFrame("tangent must have x component exactly 1")
    if state.n.x != 0.0 or state.b.x != 0.0:
        raise BadInitialFrame("n and b must be isotropic (x component 0)")
    n, b = (state.n.y, state.n.z), (state.b.y, state.b.z)
    nn, bb, nb = plane_product(*n, *n), plane_product(*b, *b), plane_product(*n, *b)
    det = plane_det(*n, *b)
    if abs(abs(nn) - 1.0) > _FRAME_TOL or abs(abs(bb) - 1.0) > _FRAME_TOL:
        raise BadInitialFrame("n and b must be unit vectors of the isotropic product")
    if nn * bb >= 0.0:
        raise BadInitialFrame("n and b must have opposite causal types")
    if abs(nb) > _FRAME_TOL:
        raise BadInitialFrame("n and b must be orthogonal in the isotropic plane")
    if abs(det - 1.0) > _FRAME_TOL:
        raise BadInitialFrame("frame determinant must equal 1")


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

        A window that leaves the integrated range raises ValueError.

        Trajectory samples are thinned to roughly _KNOT_SPACING before the
        spline fit: third derivatives of an interpolant amplify sample-level
        rounding noise like spacing^-3, so knots at every fine integration
        step would drown the reconstructed torsion in noise.  The spacing
        balances that amplification against truncation error for double
        precision.
        """
        s_min = float(self.s[0]) if s_min is None else float(s_min)
        s_max = float(self.s[-1]) if s_max is None else float(s_max)
        h = float(self.s[1] - self.s[0]) if self.s.size > 1 else _KNOT_SPACING
        stride = max(1, int(round(_KNOT_SPACING / h)))
        idx = np.arange(0, self.s.size, stride)
        if idx[-1] != self.s.size - 1:
            idx = np.append(idx, self.s.size - 1)
        if idx.size < 6:
            idx = np.arange(self.s.size)
        curve = curve_from_samples(self.s[idx], self.r[idx, 1], self.r[idx, 2],
                                   x=self.r[idx, 0])
        inside = int(np.count_nonzero((self.s[idx] >= s_min) & (self.s[idx] <= s_max)))
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


def integrate_frenet(p: InvariantProfile, init: FrenetState | None = None,
                     step: float = 1e-3) -> FrenetTrajectory:
    """Integrate the frame equations over the profile's range.

    The step is a target: the range is divided into a whole number of equal
    steps no longer than requested, so halving the requested step exactly
    doubles the step count.  Raises ValueError for a step that is not finite
    and positive, InvalidProfile when kappa is not positive on the sample
    grid, BadInitialFrame for an inconsistent start frame and DomainError
    when a profile cannot be evaluated on the range.
    """
    if not 0.0 < step < math.inf:
        raise ValueError("step must be finite and positive")
    if init is None:
        init = canonical_state(p.s_min)
    if init.s != p.s_min:
        raise BadInitialFrame("initial state must sit at the range start")
    _validate_state(init)

    length = p.s_max - p.s_min
    n_steps = max(1, int(math.ceil(length / step - 1e-9)))
    h = length / n_steps

    nodes = p.s_min + (0.5 * h) * np.arange(2 * n_steps + 1)
    nodes[-1] = p.s_max
    kappa = np.broadcast_to(p.kappa.jet3(nodes).v, nodes.shape)
    if np.any(kappa[::2] <= 0.0):
        raise InvalidProfile("kappa must be positive on the whole range")
    tau = np.broadcast_to(p.tau.jet3(nodes).v, nodes.shape)

    theta = _antiderivative(tau, h)[:, None]
    n0, b0 = np.array([init.n.y, init.n.z]), np.array([init.b.y, init.b.z])
    ch, sh = np.cosh(theta), np.sinh(theta)
    n = n0 * ch + b0 * sh
    b = b0 * ch + n0 * sh
    t = np.array([init.t.y, init.t.z]) + _antiderivative(kappa[:, None] * n, h)
    yz = np.array([init.r.y, init.r.z]) + _antiderivative(t, h)

    s = nodes[::2]
    r = np.column_stack([init.r.x + (s - p.s_min), yz[::2]])
    return FrenetTrajectory(s=s, r=r,
                            t_y=t[::2, 0], t_z=t[::2, 1],
                            n_y=n[::2, 0], n_z=n[::2, 1],
                            b_y=b[::2, 0], b_z=b[::2, 1])


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
    start = canonical_state(lo, PGVector3(lo + m1, 0.0, float(n1)))
    return integrate_frenet(p, start, step=step)


def rectifying_drift(traj: FrenetTrajectory | FrenetGrid, m1: float, n1: float) -> np.ndarray:
    """Componentwise spread of r - (s + m1) t - n1 b over a trajectory or grid."""
    lam = traj.s + m1
    fx = traj.r[:, 0] - lam
    fy = traj.r[:, 1] - lam * traj.t_y - n1 * traj.b_y
    fz = traj.r[:, 2] - lam * traj.t_z - n1 * traj.b_z
    return np.array([float(np.ptp(f)) for f in (fx, fy, fz)])


@dataclass(frozen=True)
class NormalComponentSamples:
    """Closed-form normal-plane component profiles evaluated on a grid."""

    s: np.ndarray
    xi: np.ndarray
    eta: np.ndarray


def synth_normal_components(kappa: float, tau: float,
                            c: tuple[float, float, float, float],
                            grid) -> NormalComponentSamples:
    """Evaluate the constant-invariant component family on a grid.

    The closed forms satisfy the governing component system identically;
    normal_ode_residuals on normal_component_exprs lands at the rounding floor.
    """
    xi_e, eta_e = normal_component_exprs(kappa, tau, c)
    s = np.asarray(grid, dtype=float)
    xi = np.asarray(xi_e.jet3(s).v, dtype=float)
    eta = np.asarray(eta_e.jet3(s).v, dtype=float)
    return NormalComponentSamples(s=s, xi=xi, eta=eta)
