"""Frenet apparatus tests: admissibility, frames, torsion oracle, residuals."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from pgcurves import frenet
from pgcurves.frenet import (
    DEFAULT_TOL_ADM,
    NotAdmissible,
    check_admissible,
    curve_from_exprs,
    curve_from_samples,
    frenet_grid,
    torsion_det,
)
from pgcurves.jets import DomainError, Jet3, jet_sqrt
from pgcurves.space import PGVector3, det3, pg_inner, plane_det, plane_product
from pgcurves.synth import synth_rectifying
from pgcurves.verify import corpus_curves


def _admissibility(curve, tol_adm=DEFAULT_TOL_ADM):
    return check_admissible(frenet_grid(curve, tol_adm=tol_adm, strict=False))


def _frame_vectors(g, i=0):
    """t, n and b at row i of a FrenetGrid, as kernel vectors."""
    return (PGVector3(1.0, float(g.t_y[i]), float(g.t_z[i])),
            PGVector3(0.0, float(g.n_y[i]), float(g.n_z[i])),
            PGVector3(0.0, float(g.b_y[i]), float(g.b_z[i])))


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
        c = dataclasses.replace(curve_from_exprs("s^2/2", "0", 0.0, 1.0), x_offset=3.0)
        assert frenet_grid(c, np.array([0.5])).r.tolist() == [[3.5, 0.125, 0.0]]

    def test_jets_on_both_paths(self):
        s = np.linspace(0.0, 2.0, 201)
        sampled = curve_from_samples(s, np.cosh(s), np.sinh(s))
        # y and z stay readable attributes; a sampled curve keeps no Expr
        assert sampled.y is None and sampled.z is None and not sampled.exact
        assert PARABOLA.z is not None and PARABOLA.exact
        at = np.array([[0.5, 1.0, 1.5]])
        for curve in (COSH_SINH, sampled):
            yj, zj = curve.jets(at)
            assert np.allclose(yj.d3, np.sinh(at), atol=1e-8)
            assert np.allclose(zj.d2, np.sinh(at), atol=1e-8)
        yj, zj = PARABOLA.jets(at)
        assert zj.d3.shape == yj.v.shape == at.shape

    def test_sampled_window_within_samples(self):
        s = np.linspace(0.0, 2.0, 21)
        sampled = curve_from_samples(s, np.cosh(s), np.sinh(s))
        assert dataclasses.replace(sampled, s_max=2.0 + 5e-13).s_max == 2.0 + 5e-13
        with pytest.raises(ValueError, match=r"window \[0.0, 2.000000001\] leaves "
                                             r"the sample range \[0.0, 2.0\]"):
            dataclasses.replace(sampled, s_max=2.0 + 1e-9)


class TestAdmissibility:
    def test_parabola_admissible(self):
        report = _admissibility(PARABOLA)
        assert report.admissible and not report.violations
        assert report.segments == [(-1.0, 1.0)]

    def test_line_rejected_everywhere(self):
        report = _admissibility(curve_from_exprs("s", "0", 0.0, 1.0, samples=11))
        assert not report.admissible
        assert len(report.violations) == 11
        # the spline through a sampled line has y'' = z'' = 0 up to rounding
        s = np.linspace(0.0, 1.0, 11)
        report = _admissibility(curve_from_samples(s, s / 2, np.zeros_like(s)))
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


# the apparatus at single points, read off grids of those points
class TestFrameAt:
    def test_cosh_sinh_at_zero(self):
        g = frenet_grid(COSH_SINH, np.array([0.0]))
        t, n, b = _frame_vectors(g)
        assert g.kappa[0] == pytest.approx(1.0, rel=1e-14)
        assert g.tau[0] == pytest.approx(1.0, rel=1e-14)
        assert g.eps[0] == 1.0
        assert t == PGVector3(1.0, 0.0, 1.0)
        assert n.as_tuple() == pytest.approx((0.0, 1.0, 0.0))
        assert b.as_tuple() == pytest.approx((0.0, 0.0, 1.0))

    def test_parabola_constant_frame(self):
        g = frenet_grid(PARABOLA, np.array([-0.5, 0.0, 0.7]))
        for i in range(3):
            _, n, b = _frame_vectors(g, i)
            assert g.kappa[i] == 1.0 and g.tau[i] == 0.0 and g.eps[i] == 1.0
            assert n == PGVector3(0.0, 1.0, 0.0)
            assert b == PGVector3(0.0, 0.0, 1.0)

    def test_timelike_normal_branch(self):
        # y'' = 0, z'' = 2 puts the second derivative on the timelike side
        g = frenet_grid(curve_from_exprs("s", "s^2", 0.0, 1.0), np.array([0.3]))
        t, n, b = _frame_vectors(g)
        assert g.eps[0] == -1.0
        assert g.kappa[0] == pytest.approx(2.0, rel=1e-14)
        assert g.tau[0] == 0.0
        assert n.as_tuple() == pytest.approx((0.0, 0.0, 1.0))
        assert b.as_tuple() == pytest.approx((0.0, -1.0, 0.0))
        assert det3(t, n, b) == pytest.approx(1.0, abs=1e-14)

    def test_not_admissible_raises(self):
        line = curve_from_exprs("s", "0", 0.0, 1.0)
        with pytest.raises(NotAdmissible, match=r"first at s=0\.5$"):
            frenet_grid(line, np.array([0.5]))
        # not strict, the point is flagged and its frame is NaN
        g = frenet_grid(line, np.array([0.5]), strict=False)
        assert not g.ok[0]
        assert all(np.isnan(v[0]) for v in (g.eps, g.kappa, g.tau, g.n_y, g.b_z))

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
        g = frenet_grid(COSH_SINH, np.array([1.3]))
        t, n, b = _frame_vectors(g)
        assert pg_inner(t, t) == 1.0
        assert pg_inner(n, b) == pytest.approx(0.0, abs=1e-15)
        assert pg_inner(n, n) == pytest.approx(g.eps[0], rel=1e-12)
        assert pg_inner(b, b) == pytest.approx(-g.eps[0], rel=1e-12)


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
        g = frenet_grid(COSH_SINH, np.linspace(0, 2, 100))
        for r in (g.res_t, g.res_n, g.res_b):
            assert np.max(r) <= 1e-10

    def test_parabola_zero_residuals(self):
        g = frenet_grid(PARABOLA, np.array([0.3]))
        assert g.res_t[0] == 0.0 and g.res_n[0] == 0.0 and g.res_b[0] == 0.0

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
        g = frenet_grid(sampled, inner)
        for r in (g.res_t, g.res_n, g.res_b):
            assert np.max(r) <= 1e-5


class TestStrictGrid:
    # the count and the first s are over the whole grid, not one block
    @pytest.mark.parametrize("y, z, window, samples, count, first", [
        ("s^2/2", "s^2/2", (0.0, 1.0), 20001, 20001, 0.0),
        ("s^2/2", "s^3/6", (-1.0, 2.0), 24577, 2, -1.0),
    ], ids=["every-point", "blocks-0-and-2"])
    def test_error_counts_the_whole_grid(self, y, z, window, samples, count, first):
        curve = curve_from_exprs(y, z, *window, samples=samples)
        with pytest.raises(NotAdmissible) as err:
            frenet_grid(curve)
        assert str(err.value) == (f"y''^2 - z''^2 below 1e-12 at {count} grid point(s), "
                                  f"first at s={first!r}")


class TestNonStrictGrid:
    def test_violations_are_masked(self):
        c = curve_from_exprs("s^4/12", "s^2/2", 0.0, 2.0, samples=101)
        g = frenet_grid(c, strict=False)
        assert not g.ok.all()
        assert np.all(np.isnan(g.kappa[~g.ok]))
        assert np.all(np.isfinite(g.kappa[g.ok]))

    @pytest.mark.parametrize("tol_adm", [0.0, -1.0, np.nan, np.inf])
    def test_tolerance_must_be_finite_and_positive(self, tol_adm):
        # y''^2 - z''^2 = 1 - s^2 is exactly 0 at s = 1, a grid point
        c = curve_from_exprs("s^2/2", "s^3/6", -1.0, 2.0, samples=7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for strict in (True, False):
                with pytest.raises(ValueError, match="tolerance tol_adm must be finite "
                                   f"and positive, got {tol_adm}"):
                    frenet_grid(c, tol_adm=tol_adm, strict=strict)

    def test_overflowing_discriminant_raises_domain_error(self, monkeypatch):
        # y'' = 1e154 (1 + s/10), so y''^2 passes 1.8e308 between s = 2 and
        # 4, the first row of the second block; 2 y'' y''' stays finite
        monkeypatch.setattr(frenet, "_BLOCK", 2)
        c = curve_from_exprs("1e154*(s^2/2 + s^3/60)", "0", 0.0, 6.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for strict in (True, False):
                with pytest.raises(DomainError, match=r"^y''\^2 - z''\^2 is not finite "
                                                      r"from s=4\.0$"):
                    frenet_grid(c, np.array([0.0, 2.0, 4.0, 6.0]), strict=strict)


def _padded_jet_grid(curve, s, tol_adm=DEFAULT_TOL_ADM):
    """The non-strict FrenetGrid of curve at s, with the frame derivatives
    taken by Jet3 arithmetic on the frame component formulas: n and b as
    first-order jets padded with zero d2 and d3 slots."""
    yj, zj = curve.jets(s)
    d = plane_product(yj.d2, zj.d2, yj.d2, zj.d2)
    ok = np.abs(d) >= tol_adm
    d_safe = np.where(ok, d, 1.0)
    eps = np.sign(d_safe)
    zero = np.zeros_like(d_safe)
    y2 = Jet3(yj.d2, yj.d3, zero, zero)
    z2 = Jet3(zj.d2, zj.d3, zero, zero)
    d_jet = Jet3(d_safe, 2.0 * plane_product(yj.d2, zj.d2, yj.d3, zj.d3), zero, zero)
    kappa = jet_sqrt(eps * d_jet)
    n_y, n_z = y2 / kappa, z2 / kappa
    b_y, b_z = (eps * z2) / kappa, (eps * y2) / kappa
    tau = plane_det(yj.d2, zj.d2, yj.d3, zj.d3) / (eps * d_safe)

    def mask(arr):
        return np.where(ok, arr, np.nan)

    return dict(
        s=s, r=np.column_stack([s + curve.x_offset, yj.v, zj.v]), disc=d, ok=ok,
        eps=mask(eps), kappa=mask(kappa.v), tau=mask(tau),
        t_y=mask(yj.d1), t_z=mask(zj.d1),
        n_y=mask(n_y.v), n_z=mask(n_z.v), b_y=mask(b_y.v), b_z=mask(b_z.v),
        res_t=mask(np.hypot(yj.d2 - kappa.v * n_y.v, zj.d2 - kappa.v * n_z.v)),
        res_n=mask(np.hypot(n_y.d1 - tau * b_y.v, n_z.d1 - tau * b_z.v)),
        res_b=mask(np.hypot(b_y.d1 - tau * n_y.v, b_z.d1 - tau * n_z.v)),
    )


SYNTHESIZED = synth_rectifying(0.5, 1.2, "1", (-1.5, 0.5), step=1e-3,
                               margin=0.05).to_curve(-1.5, 0.5)

# CURVE_CORPUS, a grid with NaN rows (lightlike at s = -1 and s = 1) and a
# synthesized sampled curve.  The "-blocks" grids span three blocks of
# frenet_grid and more: the bulk curve; the lightlike curve, its NaN rows the
# first of blocks 0 and 2; and the sampled curve on 2,001 points in blocks of
# 1,000, whose edges fall inside the 512-point passes of spline.evaluate.
REFERENCE_CURVES = {
    **dict(corpus_curves()),
    "lightlike": curve_from_exprs("s^2/2", "s^3/6", -1.0, 2.0, samples=6001),
    "synthesized": SYNTHESIZED,
    "cosh-blocks": curve_from_exprs("1.5*cosh(s)", "1.5*sinh(s)", -2.0, 2.0,
                                    samples=3 * frenet._BLOCK + 1),
    "lightlike-blocks": curve_from_exprs("s^2/2", "s^3/6", -1.0, 2.0,
                                         samples=3 * frenet._BLOCK + 1),
    "synthesized-blocks": dataclasses.replace(SYNTHESIZED, samples=2001),
}
BLOCK_SIZES = {"synthesized-blocks": 1000}


class TestClosedFormFrame:
    @pytest.mark.parametrize("curve_id", REFERENCE_CURVES)
    def test_bitwise_equal_to_padded_jets(self, curve_id, monkeypatch):
        curve = REFERENCE_CURVES[curve_id]
        block = BLOCK_SIZES.get(curve_id, frenet._BLOCK)
        monkeypatch.setattr(frenet, "_BLOCK", block)
        assert curve.samples > 2 * block or not curve_id.endswith("-blocks")
        grid = frenet_grid(curve, strict=False)
        reference = _padded_jet_grid(curve, grid.s)
        assert set(reference) == {name for name, value in vars(grid).items()
                                  if isinstance(value, np.ndarray)}
        for name, expected in reference.items():
            got = getattr(grid, name)
            assert got.dtype == expected.dtype, name
            assert got.tobytes() == expected.tobytes(), name

    def test_huge_curvature_raises_no_warning(self):
        curve = curve_from_exprs("1e70*cosh(s)", "1e70*sinh(s)", 0.0, 1.0, samples=51)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = frenet_grid(curve)
        np.testing.assert_allclose(grid.kappa, 1e70, rtol=1e-14)
        np.testing.assert_allclose(grid.tau, 1.0, rtol=1e-14)

    def test_peak_memory_near_output(self):
        curve = curve_from_exprs("1.5*cosh(s)", "1.5*sinh(s)", -2.0, 2.0, samples=50_001)
        tracemalloc.start()
        try:
            grid = frenet_grid(curve)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = sum(v.nbytes for v in vars(grid).values() if isinstance(v, np.ndarray))
        assert peak <= 1.3 * kept, f"peak {peak / kept:.2f} times the grid's arrays"
