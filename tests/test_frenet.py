"""Frenet apparatus tests: admissibility, frames, torsion oracle, residuals."""

import dataclasses
import math

import numpy as np
import pytest

from pgcurves.frenet import (
    DEFAULT_TOL_ADM,
    NotAdmissible,
    check_admissible,
    curve_from_exprs,
    curve_from_samples,
    frame_at,
    frenet_grid,
    frenet_residuals,
    reparametrize_graph,
    torsion_det,
)
from pgcurves.space import PGVector3, det3, pg_inner


def _admissibility(curve, tol_adm=DEFAULT_TOL_ADM):
    return check_admissible(frenet_grid(curve, tol_adm=tol_adm, strict=False))


COSH_SINH = curve_from_exprs("cosh(s)", "sinh(s)", 0.0, 2.0)
PARABOLA = curve_from_exprs("s^2/2", "0", -1.0, 1.0)

# curves with varied torsion profiles and both orientation signs
CORPUS = [
    COSH_SINH,
    PARABOLA,
    curve_from_exprs("s^2", "s", 0.0, 1.0),
    curve_from_exprs("s", "s^2", 0.0, 1.0),
    curve_from_exprs("cosh(2*s)", "sinh(2*s)", 0.0, 1.0),
    curve_from_exprs("exp(s)", "s^2/2", 0.5, 1.5),
    curve_from_exprs("s^3/6", "cosh(s)", 0.0, 2.0),
    curve_from_exprs("sinh(s)", "cosh(s)", 0.0, 2.0),
    curve_from_exprs("log(s)", "s^2/12", 0.5, 2.0),
    curve_from_exprs("s^4/12", "s^2/2", 1.2, 2.0),
    curve_from_exprs("tanh(s)", "s^2/20", 0.5, 2.0),
    curve_from_exprs("s^2/2 + sin(s)", "sin(s)", 1.0, 2.0),
]


class TestCurveDef:
    def test_validation(self):
        with pytest.raises(ValueError):
            curve_from_exprs("s", "0", 1.0, 1.0)
        with pytest.raises(ValueError):
            curve_from_exprs("s", "0", 0.0, 1.0, samples=1)

    def test_position_with_offset(self):
        c = curve_from_exprs("s^2/2", "0", 0.0, 1.0, x_offset=3.0)
        x, y, z = c.position(0.5)
        assert (x, y, z) == (3.5, 0.125, 0.0)


class TestAdmissibility:
    def test_parabola_admissible(self):
        report = _admissibility(PARABOLA)
        assert report.admissible and not report.violations
        assert report.segments == [(-1.0, 1.0)]

    def test_line_rejected_everywhere(self):
        report = _admissibility(curve_from_exprs("s", "0", 0.0, 1.0, samples=11))
        assert not report.admissible
        assert len(report.violations) == 11

    def test_cosh_sinh_admissible(self):
        assert _admissibility(COSH_SINH).admissible

    def test_sign_change_splits_segments(self):
        # second-derivative difference s^4 - 1 crosses zero at s = 1
        c = curve_from_exprs("s^4/12", "s^2/2", 0.0, 2.0, samples=1001)
        report = _admissibility(c)
        assert not report.admissible
        assert len(report.segments) == 2
        (a_lo, a_hi), (b_lo, b_hi) = report.segments
        assert a_lo == 0.0 and b_hi == 2.0
        assert a_hi < 1.0 < b_lo

    # y''^2 - z''^2 is s^2 for (s^3/6, 0) and s^4 - 1 for (s^4/12, s^2/2);
    # both vanish exactly at the listed grid points
    @pytest.mark.parametrize("y, z, s, bad, segments", [
        ("s^3/6", "0", [0.0, 0.5, 1.0], [0.0], [(0.5, 1.0)]),
        ("s^3/6", "0", [-1.0, -0.5, 0.0], [0.0], [(-1.0, -0.5)]),
        ("s^4/12", "s^2/2", [-1.0, 0.5, 1.0], [-1.0, 1.0], [(0.5, 0.5)]),
        ("s^4/12", "s^2/2", [0.0, 0.5, 1.5, 2.0], [], [(0.0, 0.5), (1.5, 2.0)]),
        ("s", "0", [0.0, 0.5, 1.0], [0.0, 0.5, 1.0], []),
    ], ids=["first-point", "last-point", "one-point-segment", "sign-flip",
            "all-violations"])
    def test_segment_edges(self, y, z, s, bad, segments):
        c = curve_from_exprs(y, z, -2.0, 2.0)
        report = check_admissible(frenet_grid(c, np.array(s), strict=False))
        assert report.violations == [(si, 0.0) for si in bad]
        assert report.segments == segments
        assert not report.admissible

    def test_segments_match_sequential_scan(self):
        # reference: the per-point scan that the vectorized segments replace
        def scan(s, d, ok):
            segments, start, sign = [], None, 0.0
            for i in range(s.size):
                if not ok[i] or (start is not None and np.sign(d[i]) != sign):
                    if start is not None:
                        segments.append((float(s[start]), float(s[i - 1])))
                    start = i if ok[i] else None
                    sign = np.sign(d[i]) if ok[i] else 0.0
                elif start is None:
                    start, sign = i, np.sign(d[i])
            if start is not None:
                segments.append((float(s[start]), float(s[-1])))
            return segments

        rng = np.random.default_rng(7)
        base = frenet_grid(COSH_SINH, np.linspace(0.0, 2.0, 40), strict=False)
        for _ in range(200):
            d = rng.choice([-1.0, 0.0, 1.0], size=40) * rng.uniform(0.5, 2.0, size=40)
            grid = dataclasses.replace(base, disc=d, ok=np.abs(d) >= base.tol_adm)
            assert check_admissible(grid).segments == scan(grid.s, d, grid.ok)


class TestFrameAt:
    def test_cosh_sinh_at_zero(self):
        f = frame_at(COSH_SINH, 0.0)
        assert f.kappa == pytest.approx(1.0, rel=1e-14)
        assert f.tau == pytest.approx(1.0, rel=1e-14)
        assert f.eps == 1.0
        assert f.t == PGVector3(1.0, 0.0, 1.0)
        assert f.n.as_tuple() == pytest.approx((0.0, 1.0, 0.0))
        assert f.b.as_tuple() == pytest.approx((0.0, 0.0, 1.0))

    def test_parabola_constant_frame(self):
        for s in (-0.5, 0.0, 0.7):
            f = frame_at(PARABOLA, s)
            assert f.kappa == 1.0 and f.tau == 0.0 and f.eps == 1.0
            assert f.n == PGVector3(0.0, 1.0, 0.0)
            assert f.b == PGVector3(0.0, 0.0, 1.0)

    def test_timelike_normal_branch(self):
        # y'' = 0, z'' = 2 puts the second derivative on the timelike side
        f = frame_at(curve_from_exprs("s", "s^2", 0.0, 1.0), 0.3)
        assert f.eps == -1.0
        assert f.kappa == pytest.approx(2.0, rel=1e-14)
        assert f.tau == 0.0
        assert f.n.as_tuple() == pytest.approx((0.0, 0.0, 1.0))
        assert f.b.as_tuple() == pytest.approx((0.0, -1.0, 0.0))
        assert det3(f.t, f.n, f.b) == pytest.approx(1.0, abs=1e-14)

    def test_not_admissible_raises(self):
        with pytest.raises(NotAdmissible):
            frame_at(curve_from_exprs("s", "0", 0.0, 1.0), 0.5)

    def test_frame_invariants_across_corpus(self):
        for curve in CORPUS:
            g = frenet_grid(curve)
            det = g.n_y * g.b_z - g.n_z * g.b_y  # x column of t contributes 1
            np.testing.assert_allclose(det, 1.0, atol=1e-12)
            inner_nn = g.n_y**2 - g.n_z**2
            inner_bb = g.b_y**2 - g.b_z**2
            np.testing.assert_allclose(inner_nn, g.eps, atol=1e-12)
            np.testing.assert_allclose(inner_bb, -g.eps, atol=1e-12)
            cross = g.n_y * g.b_y - g.n_z * g.b_z
            np.testing.assert_allclose(cross, 0.0, atol=1e-12)
            assert np.all(g.kappa > 0)

    def test_frame_vectors_satisfy_kernel_products(self):
        f = frame_at(COSH_SINH, 1.3)
        assert pg_inner(f.t, f.t) == 1.0
        assert pg_inner(f.n, f.b) == pytest.approx(0.0, abs=1e-15)
        assert pg_inner(f.n, f.n) == pytest.approx(f.eps, rel=1e-12)
        assert pg_inner(f.b, f.b) == pytest.approx(-f.eps, rel=1e-12)


class TestTorsion:
    def test_cosh_sinh_determinant_torsion(self):
        assert torsion_det(COSH_SINH, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_parabola_zero_torsion(self):
        assert torsion_det(PARABOLA, 0.5) == 0.0

    def test_oracle_equivalence_on_corpus(self):
        rng = np.random.default_rng(7)
        for curve in CORPUS:
            s = rng.uniform(curve.s_min, curve.s_max, size=200)
            tau_frame = frenet_grid(curve, s).tau
            tau_det = torsion_det(curve, s)
            denom = np.maximum(np.abs(tau_frame), np.abs(tau_det))
            diff = np.abs(tau_frame - tau_det)
            mask = denom > 0
            assert np.all(diff[mask] / denom[mask] <= 1e-12)
            assert np.all(diff[~mask] == 0.0)

    def test_scalar_path_uses_kernel_determinant(self):
        s = 0.9
        assert torsion_det(COSH_SINH, s) == pytest.approx(
            float(torsion_det(COSH_SINH, np.array([s]))[0]), rel=1e-14)

    def test_kappa_invariant_under_component_swap(self):
        swapped = curve_from_exprs("sinh(s)", "cosh(s)", 0.0, 2.0)
        g1 = frenet_grid(COSH_SINH)
        g2 = frenet_grid(swapped)
        np.testing.assert_allclose(g1.kappa, g2.kappa, rtol=1e-12)
        np.testing.assert_allclose(g2.eps, -g1.eps)

    def test_tau_flips_sign_under_z_negation(self):
        flipped = curve_from_exprs("cosh(s)", "-sinh(s)", 0.0, 2.0)
        g1 = frenet_grid(COSH_SINH)
        g2 = frenet_grid(flipped)
        np.testing.assert_allclose(g2.tau, -g1.tau, rtol=1e-12)
        np.testing.assert_allclose(g2.kappa, g1.kappa, rtol=1e-12)


class TestResiduals:
    def test_cosh_sinh_exact_path(self):
        res = frenet_residuals(COSH_SINH, np.linspace(0, 2, 100))
        for r in res:
            assert np.max(r) <= 1e-10

    def test_parabola_zero_residuals(self):
        res_t, res_n, res_b = frenet_residuals(PARABOLA, 0.3)
        assert res_t == 0.0 and res_n == 0.0 and res_b == 0.0

    def test_corpus_residual_floor(self):
        for curve in CORPUS:
            g = frenet_grid(curve)
            assert float(np.max(g.res_t)) <= 1e-9
            assert float(np.max(g.res_n)) <= 1e-9
            assert float(np.max(g.res_b)) <= 1e-9

    def test_sampled_path_within_relaxed_tolerance(self):
        s = np.linspace(0.0, 2.0, 10_000)
        sampled = curve_from_samples(s, np.cosh(s), np.sinh(s))
        inner = np.linspace(0.05, 1.95, 500)
        res = frenet_residuals(sampled, inner)
        for r in res:
            assert np.max(r) <= 1e-5


class TestNonStrictGrid:
    def test_violations_are_masked(self):
        c = curve_from_exprs("s^4/12", "s^2/2", 0.0, 2.0, samples=101)
        g = frenet_grid(c, strict=False)
        assert not g.ok.all()
        assert np.all(np.isnan(g.kappa[~g.ok]))
        assert np.all(np.isfinite(g.kappa[g.ok]))


class TestReparametrize:
    def test_identity_graph_form(self):
        c = reparametrize_graph("t", "cosh(t)", "sinh(t)", (0.0, 2.0))
        assert c.s_min == pytest.approx(0.0) and c.s_max == pytest.approx(2.0)
        f_exact = frame_at(COSH_SINH, 1.0)
        f_sampled = frame_at(c, 1.0)
        assert f_sampled.kappa == pytest.approx(f_exact.kappa, abs=1e-6)
        assert f_sampled.tau == pytest.approx(f_exact.tau, abs=1e-6)
        assert f_sampled.n.y == pytest.approx(f_exact.n.y, abs=1e-6)

    def test_linear_stretch(self):
        c = reparametrize_graph("2*t", "t", "0", (0.0, 1.0))
        # y(s) = s / 2 once x becomes the parameter
        x, y, z = c.position(1.3)
        assert x == pytest.approx(1.3, abs=1e-12)
        assert y == pytest.approx(0.65, abs=1e-9)
        assert z == pytest.approx(0.0, abs=1e-12)
        # and the result fails the second-derivative admissibility condition
        assert not _admissibility(c, tol_adm=1e-8).admissible

    def test_stationary_point_rejected(self):
        with pytest.raises(NotAdmissible):
            reparametrize_graph("t^3", "t", "0", (-1.0, 1.0))

    def test_decreasing_x(self):
        c = reparametrize_graph("-t", "cosh(t)", "sinh(t)", (0.0, 1.0))
        assert c.s_min == pytest.approx(-1.0) and c.s_max == pytest.approx(0.0)
        # at s = -0.5 the original parameter is t = 0.5
        _, y, z = c.position(-0.5)
        assert y == pytest.approx(math.cosh(0.5), abs=1e-9)
        assert z == pytest.approx(math.sinh(0.5), abs=1e-9)
