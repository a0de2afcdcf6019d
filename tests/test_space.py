"""Kernel tests: degenerate inner product, determinant, isotropic-plane helpers."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pgcurves.space import (
    PGVector3,
    det3,
    pg_inner,
    plane_det,
    plane_product,
)

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
nonzero = finite.filter(lambda v: abs(v) > 1e-6)

vectors = st.builds(PGVector3, finite, finite, finite)
isotropic = st.builds(PGVector3, st.just(0.0), finite, finite)


def _combine(*terms):
    """The vector sum of c * v over (c, v) pairs, built component by component."""
    return PGVector3(*(sum(c * getattr(v, k) for c, v in terms) for k in "xyz"))


class TestPGVector3:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PGVector3(float("nan"), 0.0, 0.0)
        with pytest.raises(ValueError):
            PGVector3(0.0, float("inf"), 0.0)


class TestInner:
    def test_non_isotropic_uses_x_only(self):
        assert pg_inner(PGVector3(1, 5, 7), PGVector3(1, 9, 2)) == 1.0

    def test_isotropic_signature(self):
        # unit spacelike and unit timelike directions of the isotropic plane
        assert pg_inner(PGVector3(0, 1, 0), PGVector3(0, 1, 0)) == 1.0
        assert pg_inner(PGVector3(0, 0, 1), PGVector3(0, 0, 1)) == -1.0

    def test_lightlike_isotropic(self):
        u = PGVector3(0, 3, 3)
        assert pg_inner(u, u) == 0.0

    def test_mixed_pair_is_zero(self):
        assert pg_inner(PGVector3(2, 1, 1), PGVector3(0, 5, -4)) == 0.0

    @given(vectors, vectors)
    def test_symmetric(self, u, v):
        assert pg_inner(u, v) == pg_inner(v, u)

    @given(isotropic, isotropic, isotropic, nonzero, nonzero)
    # 31 * 500 * 541.8 ~ 8.4e6 cancels here, and lhs reads -1.86e-9 against 0.0
    @example(PGVector3(0.0, 0.0, 0.0), PGVector3(0.0, 500.0, 541.8144323850183),
             PGVector3(0.0, 541.8144323850183, 500.0), 1.0, 31.0)
    def test_bilinear_on_isotropic_plane(self, u, v, w, a, b):
        lhs = pg_inner(_combine((a, u), (b, v)), w)
        rhs = a * pg_inner(u, w) + b * pg_inner(v, w)
        # the rounding error grows with the terms that cancel, not with the result
        scale = (abs(a) * (abs(u.y * w.y) + abs(u.z * w.z))
                 + abs(b) * (abs(v.y * w.y) + abs(v.z * w.z)))
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + scale)


class TestDet3:
    def test_identity(self):
        assert det3(PGVector3(1, 0, 0), PGVector3(0, 1, 0), PGVector3(0, 0, 1)) == 1.0

    def test_row_swap(self):
        assert det3(PGVector3(1, 0, 0), PGVector3(0, 0, 1), PGVector3(0, 1, 0)) == -1.0

    def test_upper_triangular(self):
        # cofactor expansion by hand: 1 * (1*1 - 0*0) - 2*0 + 3*0 = 1
        assert det3(PGVector3(1, 2, 3), PGVector3(0, 1, 0), PGVector3(0, 0, 1)) == 1.0

    @staticmethod
    def _scale(*vs):
        # determinant terms are triple products, so rounding scales with them
        out = 1.0
        for v in vs:
            out *= 1.0 + max(abs(v.x), abs(v.y), abs(v.z))
        return out

    @given(vectors, vectors, vectors)
    def test_alternating(self, u, v, w):
        d1 = det3(u, v, w)
        d2 = det3(v, u, w)
        assert abs(d1 + d2) <= 1e-12 * self._scale(u, v, w)

    @given(vectors, vectors, vectors, nonzero)
    def test_row_scaling(self, u, v, w, a):
        d1 = det3(_combine((a, u)), v, w)
        d2 = a * det3(u, v, w)
        assert abs(d1 - d2) <= 1e-12 * abs(a) * self._scale(u, v, w)

    @given(vectors, vectors, vectors, vectors)
    def test_multilinear_first_row(self, u1, u2, v, w):
        d = det3(_combine((1.0, u1), (1.0, u2)), v, w)
        split = det3(u1, v, w) + det3(u2, v, w)
        assert abs(d - split) <= 1e-12 * (self._scale(u1, v, w) + self._scale(u2, v, w))


class TestPlaneHelpers:
    def test_product_and_determinant_of_the_isotropic_plane(self):
        assert plane_product(2.0, 1.0, 3.0, 5.0) == 2.0 * 3.0 - 1.0 * 5.0
        assert plane_det(2.0, 1.0, 3.0, 5.0) == 2.0 * 5.0 - 1.0 * 3.0

    def test_arrays_are_elementwise(self):
        ay, az = np.array([1.0, 2.0]), np.array([0.5, 3.0])
        np.testing.assert_array_equal(plane_product(ay, az, ay, az), ay * ay - az * az)
        np.testing.assert_array_equal(plane_det(ay, az, az, ay), ay * ay - az * az)
