"""Vectors and the degenerate scalar product of pseudo-Galilean 3-space.

The geometry splits R^3 into a non-isotropic direction (the x axis) and the
isotropic plane x = 0.  Generic vectors are measured through their x
components alone; vectors confined to the isotropic plane carry a
Minkowski-type product of signature (+, -) in (y, z).  The product is
therefore degenerate on the whole space and the causal vocabulary
(spacelike / timelike / lightlike) only applies inside the isotropic plane.
plane_product and plane_det are that product and the plane's determinant on
floats or arrays; eps, kappa, tau and the frame checks all use them.
"""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class PGVector3:
    """Immutable vector with non-isotropic coordinate x and isotropic plane (y, z).

    Components must be finite; NaN or infinities are rejected at construction
    so the kernel never has to re-check.
    """

    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"non-finite component {name}={value!r}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


ORIGIN = PGVector3(0.0, 0.0, 0.0)


def plane_product(ay, az, by, bz):
    """Signature (+, -) product a_y b_y - a_z b_z of two isotropic-plane vectors.

    Components are floats or numpy arrays of a common shape.
    """
    return ay * by - az * bz


def plane_det(ay, az, by, bz):
    """Determinant a_y b_z - a_z b_y of two isotropic-plane vectors.

    Components are floats or numpy arrays of a common shape.
    """
    return ay * bz - az * by


def pg_inner(u: PGVector3, v: PGVector3) -> float:
    """Degenerate scalar product of pseudo-Galilean space.

    If either argument has a nonzero x component the product is u.x * v.x
    (so a mixed isotropic / non-isotropic pair yields 0).  For two isotropic
    vectors it is the signature (+, -) product u.y * v.y - u.z * v.z.

    The branch test is an exact comparison with zero: frame machinery builds
    isotropic vectors with a literal 0.0 first component, and measured data
    must be snapped by the caller before entering the kernel.
    """
    if u.x != 0.0 or v.x != 0.0:
        return u.x * v.x
    return plane_product(u.y, u.z, v.y, v.z)


def det3(u: PGVector3, v: PGVector3, w: PGVector3) -> float:
    """Determinant of the 3x3 matrix with rows u, v, w."""
    return (
        u.x * (v.y * w.z - v.z * w.y)
        - u.y * (v.x * w.z - v.z * w.x)
        + u.z * (v.x * w.y - v.y * w.x)
    )
