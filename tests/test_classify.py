"""Classification tests: frame components, rectifying verdicts, component fits."""

import numpy as np
import pytest

from pgcurves import classify
from pgcurves.classify import (
    DegenerateFit,
    NonConstantInvariants,
    ZeroTorsion,
    classify_rectifying,
    fit_normal_components,
    fit_normal_samples,
    frame_components,
    frame_components_arrays,
    normal_component_exprs,
    normal_ode_residuals,
)
from pgcurves.dsl import Const
from pgcurves.frenet import NotAdmissible, curve_from_exprs, frame_at, frenet_grid
from pgcurves.space import ORIGIN, PGVector3
from pgcurves.verify import _draw_family, check_normal_fit_roundtrip, run_all

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


class TestNormalComponentFamily:
    def test_closed_forms_solve_component_system_symbolically(self):
        # independent desk oracle, machine checked
        import sympy as sp

        s, k, t, c1, c2, c3, c4 = sp.symbols("s k t c1 c2 c3 c4", nonzero=True)
        a_part = (c1 + c2 * s) * sp.exp(-t * s)
        b_part = (c3 + c4 * s) * sp.exp(t * s)
        xi = a_part + b_part + k / t**2
        eta = a_part - b_part
        r1 = sp.simplify(sp.diff(xi, s, 2) + 2 * t * sp.diff(eta, s) + t**2 * xi - k)
        r2 = sp.simplify(sp.diff(eta, s, 2) + 2 * t * sp.diff(xi, s) + t**2 * eta)
        assert r1 == 0
        assert r2 == 0

    def test_constant_particular_solution(self):
        grid = np.linspace(0.0, 1.0, 50)
        r1, r2 = normal_ode_residuals(Const(0.25), Const(0.0), 1.0, 2.0, grid)
        assert r1 == 0.0 and r2 == 0.0

    def test_zero_functions_leave_forcing_term(self):
        grid = np.linspace(0.0, 1.0, 50)
        r1, r2 = normal_ode_residuals(Const(0.0), Const(0.0), 1.0, 1.0, grid)
        assert r1 == 1.0 and r2 == 0.0

    def test_closed_forms_at_rounding_floor(self):
        rng = np.random.default_rng(3)
        grid = np.linspace(0.0, 1.0, 101)
        for _ in range(25):
            kappa = rng.uniform(0.1, 10.0)
            tau = rng.uniform(0.1, 5.0) * rng.choice([-1.0, 1.0])
            c = tuple(rng.uniform(-1.0, 1.0, size=4))
            xi_e, eta_e = normal_component_exprs(kappa, tau, c)
            r1, r2 = normal_ode_residuals(xi_e, eta_e, kappa, tau, grid)
            assert r1 <= 1e-10 and r2 <= 1e-10

    def test_zero_torsion_rejected(self):
        with pytest.raises(ZeroTorsion):
            normal_component_exprs(1.0, 0.0, (0, 0, 0, 0))


class TestFitNormalSamples:
    @staticmethod
    def _reference_profile(s, kappa, tau, c):
        # generated directly with numpy, independent of the DSL expressions
        c1, c2, c3, c4 = c
        a_part = (c1 + c2 * s) * np.exp(-tau * s)
        b_part = (c3 + c4 * s) * np.exp(tau * s)
        return a_part + b_part + kappa / tau**2, a_part - b_part

    def test_recovers_documented_draw(self):
        s = np.linspace(0.0, 2.0, 201)
        kappa, tau = 1.0, 1.0
        c = (0.3, -0.2, 0.1, 0.05)
        xi, eta = self._reference_profile(s, kappa, tau, c)
        fit = fit_normal_samples(s, xi, eta)
        assert fit.kappa0 == pytest.approx(kappa, abs=1e-8)
        assert fit.tau0 == pytest.approx(tau, abs=1e-8)
        for got, want in zip((fit.c1, fit.c2, fit.c3, fit.c4), c):
            assert got == pytest.approx(want, abs=1e-8)
        assert fit.xi_residual <= 1e-10 and fit.eta_residual <= 1e-10

    def test_constant_profile_fits_exactly(self):
        # kappa and tau are not separately identifiable from constant data;
        # the fit must still reproduce the profile and the ratio kappa/tau^2
        s = np.linspace(0.0, 1.0, 64)
        xi = np.full_like(s, 0.25)
        eta = np.zeros_like(s)
        fit = fit_normal_samples(s, xi, eta)
        assert fit.xi_residual <= 1e-10 and fit.eta_residual <= 1e-10
        assert fit.kappa0 / fit.tau0**2 == pytest.approx(0.25, abs=1e-6)

    def test_negative_tau_identified(self):
        s = np.linspace(0.0, 1.5, 151)
        kappa, tau = 2.0, -1.7
        c = (0.4, 0.2, -0.3, 0.6)
        xi, eta = self._reference_profile(s, kappa, tau, c)
        fit = fit_normal_samples(s, xi, eta)
        assert fit.tau0 == pytest.approx(tau, abs=1e-8)
        assert fit.kappa0 == pytest.approx(kappa, abs=1e-8)


    def test_zero_slope_profile_recovered(self):
        # c2 = c4 = 0 leaves the two-rate regression rank deficient, so the
        # one-rate candidate wins; the grid is the verify draw's for this tau
        kappa, tau = 2.0, 1.3
        c = (0.5, 0.0, -0.4, 0.0)
        s = np.linspace(0.0, 2.5 / tau, 121)
        xi, eta = self._reference_profile(s, kappa, tau, c)
        fit = fit_normal_samples(s, xi, eta)
        got = (fit.kappa0, fit.tau0, fit.c1, fit.c2, fit.c3, fit.c4)
        assert got == pytest.approx((kappa, tau, *c), abs=1e-8)

    def _two_rate_case(self):
        """A two-rate profile, its tau and its in-range candidate taus."""
        tau = -2.2
        s = np.linspace(0.0, 2.5 / abs(tau), 121)
        xi, eta = self._reference_profile(s, 3.7, tau, (0.6, -0.9, 0.35, 0.2))
        lo, hi = classify._RATE_RANGE
        rates = classify._regression_rates(s, 0.5 * (xi + eta), 0.5 * (xi - eta))
        return s, xi, eta, tau, [t for t, _ in rates if lo <= abs(t) <= hi]

    def test_one_joint_fit_per_candidate_and_one_step(self, monkeypatch):
        s, xi, eta, tau, candidates = self._two_rate_case()
        taus = []
        original = classify._joint_fit

        def counted(x, y, tau):
            taus.append(tau)
            return original(x, y, tau)

        monkeypatch.setattr(classify, "_joint_fit", counted)
        fit = fit_normal_samples(s, xi, eta)
        assert fit.tau0 == pytest.approx(tau, abs=1e-8)
        assert fit.tau_source == "two-rate"
        assert len(taus) <= len(candidates) + 1
        # the reported residual is the joint fit's at the fitted tau
        y = np.concatenate([xi, eta])
        assert fit.projection_residual == original(s, y, fit.tau0)[3]
        assert fit.projection_residual <= 1e-20

    def test_gauss_newton_step_rejected_when_residual_rises(self, monkeypatch):
        s, xi, eta, _, candidates = self._two_rate_case()
        y = np.concatenate([xi, eta])
        original = classify._joint_fit
        winner = min(candidates, key=lambda t: original(s, y, t)[3])
        # unpatched, the step moves tau off the candidate
        assert fit_normal_samples(s, xi, eta).tau0 != winner

        def worse_off_candidates(x, y, tau):
            a, coef, r, residual = original(x, y, tau)
            return a, coef, r, residual if tau in candidates else residual + 1.0

        monkeypatch.setattr(classify, "_joint_fit", worse_off_candidates)
        fit = fit_normal_samples(s, xi, eta)
        assert fit.tau_source == "two-rate"
        assert fit.tau0 == winner
        assert fit.projection_residual == original(s, y, winner)[3]

    def test_non_uniform_grid_recovered(self):
        # the regression candidates need no uniform grid
        kappa, tau = 1.0, 1.0
        c = (0.3, -0.2, 0.1, 0.05)
        s = np.linspace(0.0, 2.0, 151)
        h = s[1] - s[0]
        s[1:-1] += 0.3 * h * np.sin(7.0 * s[1:-1])
        xi, eta = self._reference_profile(s, kappa, tau, c)
        fit = fit_normal_samples(s, xi, eta)
        got = (fit.kappa0, fit.tau0, fit.c1, fit.c2, fit.c3, fit.c4)
        assert got == pytest.approx((kappa, tau, *c), abs=1e-8)
        assert fit.tau_source == "two-rate"

    @pytest.mark.parametrize("family", ["jittered", "chebyshev", "zero_slope"])
    def test_recovered_on_any_grid(self, family):
        # 40 draws of the verify family on the verify grid, except that
        # "jittered" moves interior nodes by U(-0.3, 0.3) h or 0.3 h sin(7 s),
        # "chebyshev" clusters them at both ends, and "zero_slope" sets
        # c2 = c4 = 0 on the uniform grid
        rng = np.random.default_rng(7)
        worst = 0.0
        for draw in range(40):
            kappa, tau, c = _draw_family(rng)
            length = min(3.0, max(1.0, 2.5 / abs(tau)))
            s = np.linspace(0.0, length, 121)
            if family == "jittered":
                h = s[1]
                shift = rng.uniform(-0.3, 0.3, 119) if draw % 2 else 0.3 * np.sin(7.0 * s[1:-1])
                s[1:-1] += shift * h
            elif family == "chebyshev":
                s = 0.5 * length * (1.0 - np.cos(np.linspace(0.0, np.pi, 121)))
            else:
                c = (c[0], 0.0, c[2], 0.0)
            xi, eta = self._reference_profile(s, kappa, tau, c)
            fit = fit_normal_samples(s, xi, eta)
            got = np.array([fit.kappa0, fit.tau0, fit.c1, fit.c2, fit.c3, fit.c4])
            worst = max(worst, float(np.max(np.abs(got - (kappa, tau, *c)))))
        assert worst <= 1e-8, worst

    @pytest.mark.parametrize("s0", [0.0, 50.0, 400.0])
    def test_grid_far_from_origin(self, s0, capfd):
        # the profile has coefficients (0.3, -0.2, 0.1, 0.05) at s0, so its
        # coefficients at s = 0 carry e^(tau s0) and e^(-tau s0)
        kappa, tau = 2.0, 1.3
        s = np.linspace(s0, s0 + 2.0, 161)
        xi, eta = self._reference_profile(s - s0, kappa, tau, (0.3, -0.2, 0.1, 0.05))
        fit = fit_normal_samples(s, xi, eta)
        assert fit.tau0 == pytest.approx(tau, abs=1e-8)
        assert fit.kappa0 == pytest.approx(kappa, abs=1e-8)
        assert max(fit.xi_residual, fit.eta_residual) <= 1e-10
        # LAPACK reports illegal arguments on the process's stderr
        assert capfd.readouterr().err == ""

    def test_coefficients_overflowing_at_origin_rejected(self):
        # tau s0 = 780: e^(tau s0) overflows, so c1 and c2 cannot be represented
        kappa, tau, s0 = 2.0, 1.3, 600.0
        s = np.linspace(s0, s0 + 2.0, 161)
        xi, eta = self._reference_profile(s - s0, kappa, tau, (0.3, -0.2, 0.1, 0.05))
        with pytest.raises(DegenerateFit, match="overflow"):
            fit_normal_samples(s, xi, eta)

    @staticmethod
    def _decay_plus_noise(noise, count=40):
        # a decay e^(-r s) under noise on a long grid: the candidate rates of
        # the noise reach |tau| (s[-1] - s[0]) beyond 709, where e^(tau x)
        # overflows
        rng = np.random.default_rng(0)
        s = np.linspace(0.0, 1000.0, 101)
        for _ in range(count):
            rate = rng.uniform(0.3, 3.0)
            xi = noise * rng.standard_normal(101) + np.exp(-rate * s)
            eta = noise * rng.standard_normal(101) - np.exp(-rate * s)
            yield s, xi, eta

    def test_long_grid_skips_overflowing_candidates(self, capfd):
        for s, xi, eta in self._decay_plus_noise(1e-4):
            fit = fit_normal_samples(s, xi, eta)
            assert abs(fit.tau0) * (s[-1] - s[0]) <= 300.0
            assert np.isfinite([fit.kappa0, fit.c1, fit.c2, fit.c3, fit.c4,
                                fit.xi_residual, fit.eta_residual]).all()
        # LAPACK reports illegal arguments on the process's stderr
        assert capfd.readouterr().err == ""

    def test_long_grid_without_candidates_rejected(self, capfd):
        s, xi, eta = next(self._decay_plus_noise(1e-9))
        with pytest.raises(DegenerateFit, match="every candidate tau overflows"):
            fit_normal_samples(s, xi, eta)
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("case", ["nan_xi", "inf_eta", "short_xi", "long_eta", "2d_s",
                                      "unsorted_s"])
    def test_bad_input_rejected_before_linear_algebra(self, case, capfd):
        s = np.linspace(0.0, 2.0, 101)
        xi, eta = self._reference_profile(s, 1.0, 1.0, (0.3, -0.2, 0.1, 0.05))
        name = case.split("_")[1]
        if case == "nan_xi":
            xi[17] = np.nan
        elif case == "inf_eta":
            eta[-1] = np.inf
        elif case == "short_xi":
            xi = xi[:-1]
        elif case == "long_eta":
            eta = np.append(eta, 0.0)
        elif case == "2d_s":
            s = s.reshape(1, -1)
        else:
            s[[40, 41]] = s[[41, 40]]
        with pytest.raises(ValueError, match=rf"^{name} "):
            fit_normal_samples(s, xi, eta)
        # LAPACK reports illegal arguments on the process's stderr
        assert capfd.readouterr().err == ""


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_blind_fit_accuracy_over_verify_draws(seed):
    # 50 draws per seed of the verify family, 200 in all
    result = check_normal_fit_roundtrip(np.random.default_rng(seed), tol=1e-9)
    assert result.count == 50
    assert result.passed, result.worst


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_verify_suite_passes_at_full_draws(seed):
    report = run_all(seed)
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert report["passed"], failed


class TestFitNormalComponents:
    def test_cosh_sinh_measured_components_do_not_fit(self):
        # beta = 1 fits the family but gamma = -s cannot; the admissible
        # graph-form geometry keeps real curves out of the family, so the
        # fit must report a visible misfit rather than fail
        fit = fit_normal_components(_decompose(COSH_SINH))
        assert fit.kappa0 == pytest.approx(1.0, abs=1e-9)
        assert fit.tau0 == pytest.approx(1.0, abs=1e-9)
        assert max(fit.xi_residual, fit.eta_residual) > 1e-2

    def test_varying_invariants_rejected(self):
        varying = curve_from_exprs("exp(s)", "s^2/2", 0.5, 1.5)
        with pytest.raises(NonConstantInvariants):
            fit_normal_components(_decompose(varying))

    def test_zero_torsion_rejected(self):
        with pytest.raises(ZeroTorsion):
            fit_normal_components(_decompose(PARABOLA))

    def test_no_blind_fit_diagnostics(self):
        fit = fit_normal_components(_decompose(COSH_SINH))
        assert fit.tau_source is None
        assert fit.projection_residual is None
