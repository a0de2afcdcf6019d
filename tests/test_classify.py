"""Classification tests: frame components, rectifying verdicts, the constant-invariant fit."""

import numpy as np
import pytest

from pgcurves.classify import (
    DegenerateFit,
    classify_rectifying,
    constant_invariant_jets,
    fit_constant_invariant,
    frame_components,
    frame_components_arrays,
)
from pgcurves.frenet import NotAdmissible, curve_from_exprs, frame_at, frenet_grid
from pgcurves.space import ORIGIN, PGVector3
from pgcurves.synth import integrate_frenet, profile
from pgcurves.verify import run_all

COSH_SINH = curve_from_exprs("cosh(s)", "sinh(s)", 0.0, 2.0)
PARABOLA = curve_from_exprs("s^2/2", "0", -1.0, 1.0)


def _decompose(curve):
    return frame_components_arrays(frenet_grid(curve), ORIGIN)


def _position(curve, s):
    x, y, z = curve.position(s)
    return PGVector3(float(x), float(y), float(z))


class TestFrameComponents:
    def test_cosh_sinh_at_zero(self):
        fc = frame_components(COSH_SINH, 0.0, ORIGIN)
        assert fc.alpha == pytest.approx(0.0, abs=1e-14)
        assert fc.beta == pytest.approx(1.0, rel=1e-12)
        assert fc.gamma == pytest.approx(0.0, abs=1e-12)

    def test_basis_vector_recovered(self):
        s = 0.8
        f = frame_at(COSH_SINH, s)
        p0 = _position(COSH_SINH, s) - f.n
        fc = frame_components(COSH_SINH, s, p0)
        assert fc.alpha == pytest.approx(0.0, abs=1e-12)
        assert fc.beta == pytest.approx(1.0, rel=1e-12)
        assert fc.gamma == pytest.approx(0.0, abs=1e-12)

    def test_basis_combination_recovered(self):
        s = 1.2
        f = frame_at(COSH_SINH, s)
        p0 = _position(COSH_SINH, s) - (2.0 * f.t + 3.0 * f.b)
        fc = frame_components(COSH_SINH, s, p0)
        assert fc.alpha == pytest.approx(2.0, rel=1e-12)
        assert fc.beta == pytest.approx(0.0, abs=1e-11)
        assert fc.gamma == pytest.approx(3.0, rel=1e-12)

    @pytest.mark.parametrize("curve", [COSH_SINH, PARABOLA])
    def test_reconstruction_everywhere(self, curve):
        p0 = PGVector3(0.3, -0.4, 0.9)
        s = curve.grid()
        g = frenet_grid(curve, s)
        x, y, z = curve.position(s)
        for i in range(0, s.size, 97):
            fc = frame_components(curve, float(s[i]), p0)
            rx = fc.alpha * 1.0
            ry = fc.alpha * g.t_y[i] + fc.beta * g.n_y[i] + fc.gamma * g.b_y[i]
            rz = fc.alpha * g.t_z[i] + fc.beta * g.n_z[i] + fc.gamma * g.b_z[i]
            err = np.sqrt((rx - (x[i] - p0.x)) ** 2 + (ry - (y[i] - p0.y)) ** 2
                          + (rz - (z[i] - p0.z)) ** 2)
            assert err <= 1e-12 * (1.0 + abs(fc.alpha) + abs(fc.beta) + abs(fc.gamma))

    def test_origin_shift_covariance(self):
        # Shifting p0 along the x axis changes r - p0 by -delta (1, 0, 0).
        # The tangential coefficient absorbs -delta exactly; beta and gamma
        # pick up the decomposition of +delta (0, t_y, t_z) in {n, b}, which
        # only vanishes where the tangent has no isotropic part.
        s, delta = 1.5, 5.0
        f = frame_at(COSH_SINH, s)
        base = frame_components(COSH_SINH, s, ORIGIN)
        shifted = frame_components(COSH_SINH, s, PGVector3(delta, 0.0, 0.0))
        assert shifted.alpha == pytest.approx(base.alpha - delta, rel=1e-12)
        det = f.n.y * f.b.z - f.b.y * f.n.z
        beta_shift = delta * (f.b.z * f.t.y - f.b.y * f.t.z) / det
        gamma_shift = delta * (f.n.y * f.t.z - f.n.z * f.t.y) / det
        assert shifted.beta == pytest.approx(base.beta + beta_shift, rel=1e-10)
        assert shifted.gamma == pytest.approx(base.gamma + gamma_shift, rel=1e-10)

    def test_origin_shift_leaves_plane_components_where_tangent_is_axial(self):
        # at the parabola vertex the tangent is purely non-isotropic
        base = frame_components(PARABOLA, 0.0, ORIGIN)
        shifted = frame_components(PARABOLA, 0.0, PGVector3(5.0, 0.0, 0.0))
        assert shifted.alpha == pytest.approx(base.alpha - 5.0, rel=1e-12)
        assert shifted.beta == pytest.approx(base.beta, abs=1e-13)
        assert shifted.gamma == pytest.approx(base.gamma, abs=1e-13)

    def test_inadmissible_grid_rejected(self):
        # y''^2 - z''^2 = s^4 - 1 vanishes at the grid point s = 1
        grid = frenet_grid(curve_from_exprs("s^4/12", "s^2/2", 0.0, 2.0),
                           strict=False)
        with pytest.raises(NotAdmissible):
            frame_components_arrays(grid, ORIGIN)


class TestClassifyRectifying:
    def test_cosh_sinh_not_rectifying(self):
        verdict = classify_rectifying(_decompose(COSH_SINH))
        assert not verdict.is_rectifying
        # normal component is identically 1, ratio tau/kappa identically 1
        assert verdict.beta_max == pytest.approx(1.0, rel=1e-10)
        assert verdict.a == pytest.approx(0.0, abs=1e-10)
        assert verdict.ratio_residual <= 1e-9

    def test_parabola_not_rectifying(self):
        verdict = classify_rectifying(_decompose(PARABOLA))
        assert not verdict.is_rectifying
        assert verdict.a == 0.0  # torsion vanishes identically

    def test_needs_enough_grid_points(self):
        tiny = curve_from_exprs("cosh(s)", "sinh(s)", 0.0, 1.0, samples=5)
        with pytest.raises(DegenerateFit):
            classify_rectifying(_decompose(tiny))

    def test_grid_refinement_does_not_flip(self):
        coarse = classify_rectifying(_decompose(COSH_SINH))
        fine = classify_rectifying(_decompose(
            curve_from_exprs("cosh(s)", "sinh(s)", 0.0, 2.0, samples=2001)))
        assert coarse.is_rectifying == fine.is_rectifying


class TestConstantInvariantFamily:
    def test_closed_forms_solve_frame_equations_symbolically(self):
        # independent desk oracle, machine checked
        import sympy as sp

        s, k, t, m1, cp, cm = sp.symbols("s k t m1 cp cm", nonzero=True)
        alpha = s + m1
        beta = k / t**2 + cp * sp.exp(t * s) + cm * sp.exp(-t * s)
        gamma = -k * (s + m1) / t - cp * sp.exp(t * s) + cm * sp.exp(-t * s)
        assert sp.simplify(sp.diff(alpha, s) - 1) == 0
        assert sp.simplify(sp.diff(beta, s) + k * alpha + t * gamma) == 0
        assert sp.simplify(sp.diff(gamma, s) + t * beta) == 0

    def test_closed_forms_at_rounding_floor(self):
        rng = np.random.default_rng(3)
        s = np.linspace(0.0, 1.0, 101)
        for _ in range(25):
            kappa = rng.uniform(0.1, 10.0)
            tau = rng.uniform(0.1, 5.0) * rng.choice([-1.0, 1.0])
            m1, c_plus, c_minus = rng.uniform(-1.0, 1.0, 3)
            alpha, beta, gamma = constant_invariant_jets(kappa, tau, m1, c_plus, c_minus, s)
            assert np.max(np.abs(alpha.d1 - 1.0)) == 0.0
            assert np.max(np.abs(beta.d1 + kappa * alpha.v + tau * gamma.v)) <= 1e-10
            assert np.max(np.abs(gamma.d1 + tau * beta.v)) <= 1e-10

    def test_values_at_zero(self):
        alpha, beta, gamma = constant_invariant_jets(2.0, 0.5, 0.25, 0.75, -0.5, 0.0)
        assert (alpha.v, beta.v, gamma.v) == (0.25, 8.25, -2.25)


def _shifted_cosh_sinh(s0, samples=201):
    return curve_from_exprs(f"cosh(s - {s0})", f"sinh(s - {s0})", s0, s0 + 2.0,
                            samples=samples)


class TestFitNormalComponents:
    """fit_constant_invariant: the normal-plane components beta and gamma
    fitted to the constant-invariant family."""

    @staticmethod
    def _fit(curve, p0=ORIGIN):
        dec = frame_components_arrays(frenet_grid(curve), p0)
        return fit_constant_invariant(dec, classify_rectifying(dec))

    def test_cosh_sinh_about_origin(self):
        # beta = 1 and gamma = -s: the particular solution, c_plus = c_minus = 0
        fit = self._fit(COSH_SINH)
        assert fit.holds and fit.error is None
        assert (fit.kappa, fit.tau) == pytest.approx((1.0, 1.0), abs=1e-12)
        assert abs(fit.c_plus) <= 1e-12 and abs(fit.c_minus) <= 1e-12
        assert fit.residual <= 1e-12

    @pytest.mark.parametrize("s0", [0.0, 300.0])
    def test_coefficients_about_shifted_origin(self, s0):
        # about p0, (cosh(s - s0), sinh(s - s0)) has m1 = -p0.x,
        # c_plus = (p0.z - p0.y)/2 e^(-s0) and c_minus = -(p0.y + p0.z)/2 e^(s0)
        p0 = PGVector3(0.3, -1.0, 2.0)
        fit = self._fit(_shifted_cosh_sinh(s0), p0)
        assert fit.holds, fit
        assert fit.c_plus == pytest.approx(1.5 * np.exp(-s0), rel=1e-9)
        assert fit.c_minus == pytest.approx(-0.5 * np.exp(s0), rel=1e-9)
        assert fit.residual <= 1e-12

    def test_coefficients_overflowing_at_zero_rejected(self, capfd):
        # e^800 overflows, so c_minus cannot be represented; the fit's own
        # columns peak at 1 and stay finite
        fit = self._fit(_shifted_cosh_sinh(800.0), PGVector3(0.3, -1.0, 2.0))
        assert not fit.holds
        assert fit.error == "the coefficients overflow at s = 0"
        assert fit.c_plus is None and fit.residual is None
        # LAPACK reports illegal arguments on the process's stderr
        assert capfd.readouterr().err == ""

    def test_varying_invariants_rejected(self):
        fit = self._fit(curve_from_exprs("exp(s)", "s^2/2", 0.5, 1.5))
        assert not fit.holds
        assert fit.error == "curvature is not constant over the grid"

    def test_varying_torsion_rejected(self):
        traj = integrate_frenet(profile("1", "1 + s", 0.0, 2.0))
        dec = frame_components_arrays(frenet_grid(traj.to_curve(0.2, 1.8)), ORIGIN)
        fit = fit_constant_invariant(dec, classify_rectifying(dec))
        assert not fit.holds
        assert fit.error == "torsion is not constant over the grid"

    def test_zero_torsion_rejected(self):
        fit = self._fit(PARABOLA)
        assert not fit.holds
        assert fit.error == "torsion vanishes over the grid, and the family needs tau != 0"
        assert (fit.kappa, fit.tau) == (1.0, 0.0)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_verify_suite_passes_at_full_draws(seed):
    report = run_all(seed)
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert report["passed"], failed
