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


def _split_projection_residual(s, u, v, tau):
    """Reference scorer: fit u on {e^-tau s, s e^-tau s, 1} and v on the mirror.

    Two independent LAPACK least-squares solves (SVD-based) per tau; the
    batched kernel classify._projection_scores must agree with it.
    """
    em, ep = np.exp(-tau * s), np.exp(tau * s)
    ones = np.ones_like(s)
    au = np.column_stack([em, s * em, ones])
    av = np.column_stack([ep, s * ep, ones])
    cu = np.linalg.lstsq(au, u, rcond=None)[0]
    cv = np.linalg.lstsq(av, v, rcond=None)[0]
    res_u = u - au @ cu
    res_v = v - av @ cv
    return float(np.dot(res_u, res_u) + np.dot(res_v, res_v)), cu, cv


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

    def test_objective_evaluations_per_fit(self, monkeypatch):
        batches = []
        original = classify._projection_scores

        def counted(s, u, v, taus):
            batches.append(len(taus))
            return original(s, u, v, taus)

        monkeypatch.setattr(classify, "_projection_scores", counted)
        kappa, tau = 3.7, -2.2
        c = (0.6, -0.9, 0.35, 0.2)
        s = np.linspace(0.0, 2.5 / abs(tau), 121)
        xi, eta = self._reference_profile(s, kappa, tau, c)
        fit = fit_normal_samples(s, xi, eta)
        assert fit.tau0 == pytest.approx(tau, abs=1e-8)
        assert fit.tau_source == "two-rate"
        assert fit.tau_evaluations == sum(batches)
        assert fit.tau_evaluations <= 100
        assert len(batches) <= 12
        # the reported residual is the kernel's score at the fitted tau
        u, v = 0.5 * (xi + eta), 0.5 * (xi - eta)
        assert fit.projection_residual == original(s, u, v, np.array([fit.tau0]))[0][0]
        assert fit.projection_residual <= 1e-20

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


class TestProjectionKernel:
    """classify._projection_scores against the two-lstsq reference scorer."""

    @staticmethod
    def _profiles(rng, kind, s):
        if kind == "noise":
            return rng.normal(size=(2, s.size))
        tau = rng.uniform(0.1, 5.0) * rng.choice([-1.0, 1.0])
        kappa = rng.uniform(0.1, 10.0)
        c1, c2, c3, c4 = rng.uniform(-1.0, 1.0, size=4)
        return ((c1 + c2 * s) * np.exp(-tau * s) + 0.5 * kappa / tau**2,
                (c3 + c4 * s) * np.exp(tau * s) + 0.5 * kappa / tau**2)

    @pytest.mark.parametrize("kind", ["noise", "family"])
    def test_matches_reference_scorer(self, kind):
        rng = np.random.default_rng(0)
        eps = np.finfo(float).eps
        for _ in range(25):
            s = np.linspace(0.0, rng.uniform(1.0, 3.0), 121)
            u, v = self._profiles(rng, kind, s)
            taus = rng.uniform(0.05, 6.0, 41) * rng.choice([-1.0, 1.0], 41)
            scores, _, _ = classify._projection_scores(s, u, v, taus)
            y_norm = np.sqrt(u @ u + v @ v)
            for tau, got in zip(taus, scores):
                want = _split_projection_residual(s, u, v, tau)[0]
                # 1e-12 relative plus a 1e-30 floor; the last term is the
                # rounding floor of forming y - A c, which both scorers share
                # and which dominates only when the residual is many orders
                # below |y| (a family profile near its own tau)
                bound = 1e-12 * want + 1e-30 + 16.0 * eps * np.sqrt(want) * y_norm
                assert abs(got - want) <= bound, (tau, got, want)

    def test_coefficients_give_the_scored_residual(self):
        rng = np.random.default_rng(5)
        s = np.linspace(0.0, 2.0, 121)
        u, v = self._profiles(rng, "family", s)
        taus = np.array([-2.5, -0.3, 0.7, 4.1])
        scores, cu, cv = classify._projection_scores(s, u, v, taus)
        for tau, score, a, b in zip(taus, scores, cu, cv):
            em, ep = np.exp(-tau * s), np.exp(tau * s)
            res_u = u - (a[0] + a[1] * s) * em - a[2]
            res_v = v - (b[0] + b[1] * s) * ep - b[2]
            assert res_u @ res_u + res_v @ res_v == pytest.approx(score, rel=1e-12, abs=1e-30)
            want = _split_projection_residual(s, u, v, tau)[0]
            assert score <= want * (1.0 + 1e-12) + 1e-30

    def test_batch_of_41_matches_single_tau(self):
        rng = np.random.default_rng(11)
        s = np.linspace(0.0, 1.7, 121)
        for kind in ("noise", "family"):
            u, v = self._profiles(rng, kind, s)
            taus = rng.uniform(0.05, 6.0, 41) * rng.choice([-1.0, 1.0], 41)
            batch = classify._projection_scores(s, u, v, taus)[0]
            for tau, in_batch in zip(taus, batch):
                alone = classify._projection_scores(s, u, v, np.array([tau]))[0][0]
                assert abs(alone - in_batch) <= 1e-12 * in_batch + 1e-30

    def test_zero_tau_never_wins(self):
        s = np.linspace(0.0, 2.0, 121)
        u, v = np.exp(-s), np.exp(s)
        scores = classify._projection_scores(s, u, v, np.array([0.0, 1.0]))[0]
        assert scores[0] == np.inf and scores[1] <= 1e-20


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
        assert fit.tau_evaluations == 0
        assert fit.projection_residual is None
