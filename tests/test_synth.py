"""Integrator and synthesis tests: exact solutions, conservation, round trips."""

import math

import numpy as np
import pytest

from pgcurves.classify import (
    check_rectifying_properties,
    classify_rectifying,
    frame_components_arrays,
)
from pgcurves.dsl import DomainError
from pgcurves.frenet import frenet_grid
from pgcurves.space import ORIGIN, PGVector3
from pgcurves.synth import (
    BadInitialFrame,
    FrenetState,
    InvalidProfile,
    canonical_state,
    integrate_frenet,
    profile,
    rectifying_drift,
    synth_normal_components,
    synth_rectifying,
)


def _decompose(curve):
    return frame_components_arrays(frenet_grid(curve), ORIGIN)


class TestIntegrateFrenet:
    def test_zero_torsion_recovers_parabola(self):
        traj = integrate_frenet(profile("1", "0", 0.0, 1.0), step=1e-3)
        # the flow is polynomial of low degree, so the scheme is exact
        i = -1
        assert traj.r[i, 0] == pytest.approx(1.0, abs=1e-12)
        assert traj.r[i, 1] == pytest.approx(0.5, abs=1e-12)
        assert traj.r[i, 2] == pytest.approx(0.0, abs=1e-12)

    def test_unit_invariants_match_closed_form(self):
        traj = integrate_frenet(profile("1", "1", 0.0, 1.0), step=1e-3)
        ch, sh = math.cosh(1.0), math.sinh(1.0)
        expected = {
            "r_y": ch - 1.0, "r_z": sh - 1.0,
            "t_y": sh, "t_z": ch - 1.0,
            "n_y": ch, "n_z": sh,
            "b_y": sh, "b_z": ch,
        }
        got = {
            "r_y": traj.r[-1, 1], "r_z": traj.r[-1, 2],
            "t_y": traj.t_y[-1], "t_z": traj.t_z[-1],
            "n_y": traj.n_y[-1], "n_z": traj.n_z[-1],
            "b_y": traj.b_y[-1], "b_z": traj.b_z[-1],
        }
        for key, want in expected.items():
            assert got[key] == pytest.approx(want, abs=1e-10), key

    def test_fourth_order_convergence(self):
        def endpoint_error(step):
            traj = integrate_frenet(profile("1", "1", 0.0, 1.0), step=step)
            ch, sh = math.cosh(1.0), math.sinh(1.0)
            exact = np.array([ch - 1.0, sh - 1.0, sh, ch - 1.0, ch, sh, sh, ch])
            got = np.array([traj.r[-1, 1], traj.r[-1, 2],
                            traj.t_y[-1], traj.t_z[-1],
                            traj.n_y[-1], traj.n_z[-1],
                            traj.b_y[-1], traj.b_z[-1]])
            return float(np.linalg.norm(got - exact))

        ratio = endpoint_error(0.05) / endpoint_error(0.025)
        assert 12.0 <= ratio <= 20.0

    def test_conserved_quantities_drift(self):
        traj = integrate_frenet(profile("1", "1", 0.0, 4.0), step=1e-3)
        cons = traj.conserved()
        assert np.max(np.abs(cons["nn"] - 1.0)) <= 1e-8
        assert np.max(np.abs(cons["bb"] + 1.0)) <= 1e-8
        assert np.max(np.abs(cons["nb"])) <= 1e-8
        assert np.max(np.abs(cons["det"] - 1.0)) <= 1e-8

    def test_round_trip_invariants(self):
        traj = integrate_frenet(profile("1", "1", 0.0, 2.0), step=1e-3)
        curve = traj.to_curve(0.05, 1.95)
        grid = frenet_grid(curve)
        assert np.max(np.abs(grid.kappa - 1.0)) <= 1e-5
        assert np.max(np.abs(grid.tau - 1.0)) <= 1e-5

    def test_varying_profile_round_trip(self):
        traj = integrate_frenet(profile("1 + s^2/4", "sin(s)", 0.0, 2.0), step=1e-3)
        curve = traj.to_curve(0.05, 1.95)
        grid = frenet_grid(curve)
        s = grid.s
        assert np.max(np.abs(grid.kappa - (1.0 + s**2 / 4.0))) <= 1e-5
        assert np.max(np.abs(grid.tau - np.sin(s))) <= 1e-5

    def test_non_positive_curvature_rejected(self):
        with pytest.raises(InvalidProfile):
            integrate_frenet(profile("s", "0", -1.0, 1.0))

    def test_profile_outside_domain_rejected(self):
        with pytest.raises(DomainError):
            integrate_frenet(profile("(-s)^0.5", "0", 0.5, 1.0))

    @pytest.mark.parametrize("kappa,tau,k_fn,w_fn", [
        ("1 + s^2/10", "sin(s)", lambda s: 1.0 + s * s / 10.0, math.sin),
        ("2", "-1", lambda s: 2.0, lambda s: -1.0),
    ], ids=["varying", "constant"])
    def test_matches_independent_ode_solver(self, kappa, tau, k_fn, w_fn):
        from scipy.integrate import solve_ivp

        def rhs(s, u):
            _, _, ty, tz, ny, nz, by, bz = u
            k, w = k_fn(s), w_fn(s)
            return [ty, tz, k * ny, k * nz, w * by, w * bz, w * ny, w * nz]

        step, s_max = 7e-4, 4.0
        traj = integrate_frenet(profile(kappa, tau, 0.0, s_max), step=step)
        assert traj.s.size == math.ceil(s_max / step) + 1
        assert traj.s[-1] == s_max
        ref = solve_ivp(rhs, (0.0, s_max), [0, 0, 0, 0, 1, 0, 0, 1], method="DOP853",
                        t_eval=traj.s, rtol=1e-13, atol=1e-13)
        assert ref.success
        got = np.vstack([traj.r[:, 1], traj.r[:, 2], traj.t_y, traj.t_z,
                         traj.n_y, traj.n_z, traj.b_y, traj.b_z])
        np.testing.assert_array_equal(traj.r[:, 0], traj.s)
        assert np.max(np.abs(got - ref.y)) <= 1e-9 * np.max(np.abs(ref.y))

    def test_bad_initial_frame_rejected(self):
        bad = FrenetState(
            s=0.0, r=ORIGIN,
            t=PGVector3(1.0, 0.0, 0.0),
            n=PGVector3(0.0, 2.0, 0.0),  # not unit
            b=PGVector3(0.0, 0.0, 1.0))
        with pytest.raises(BadInitialFrame):
            integrate_frenet(profile("1", "0", 0.0, 1.0), init=bad)

    def test_init_must_sit_at_range_start(self):
        with pytest.raises(BadInitialFrame):
            integrate_frenet(profile("1", "0", 0.0, 1.0), init=canonical_state(0.5))

    def test_lightlike_isotropic_frame_rejected(self):
        bad = FrenetState(
            s=0.0, r=ORIGIN,
            t=PGVector3(1.0, 0.0, 0.0),
            n=PGVector3(0.0, 1.0, 1.0),
            b=PGVector3(0.0, 0.0, 1.0))
        with pytest.raises(BadInitialFrame):
            integrate_frenet(profile("1", "0", 0.0, 1.0), init=bad)


class TestSynthRectifying:
    def test_documented_example(self):
        traj = synth_rectifying(0.0, 1.0, "1", (0.0, 2.0), step=1e-3)
        assert np.all(rectifying_drift(traj, 0.0, 1.0) <= 1e-7)

    def test_round_trip_classification(self):
        traj = synth_rectifying(0.0, 1.0, "1", (0.0, 2.0), step=1e-3, margin=0.05)
        curve = traj.to_curve(0.0, 2.0)
        verdict = classify_rectifying(_decompose(curve))
        assert verdict.is_rectifying
        assert verdict.beta_max <= 1e-6
        assert verdict.m1 == pytest.approx(0.0, abs=1e-5)
        assert verdict.n1 == pytest.approx(1.0, abs=1e-5)
        assert abs(verdict.a * verdict.n1 + 1.0) <= 1e-6
        assert abs(verdict.b_coef * verdict.n1 + verdict.m1) <= 1e-6

    def test_shifted_parameters_recovered(self):
        m1, n1 = 1.5, -2.0
        traj = synth_rectifying(m1, n1, "2", (-m1 - 1.0, -m1 + 1.0),
                                step=1e-3, margin=0.05)
        curve = traj.to_curve(-m1 - 1.0, -m1 + 1.0)
        verdict = classify_rectifying(_decompose(curve))
        assert verdict.is_rectifying
        assert verdict.m1 == pytest.approx(m1, abs=1e-5)
        assert verdict.n1 == pytest.approx(n1, abs=1e-5)
        assert abs(verdict.a * n1 + 1.0) <= 1e-6

    def test_property_report_passes(self):
        traj = synth_rectifying(0.5, 1.2, "1", (-1.5, 0.5), step=1e-3, margin=0.05)
        dec = _decompose(traj.to_curve(-1.5, 0.5))
        verdict = classify_rectifying(dec)
        report = check_rectifying_properties(dec, verdict, tol=1e-5)
        assert report.all_ok

    def test_property_report_requires_positive_verdict(self):
        from pgcurves.frenet import curve_from_exprs

        dec = _decompose(curve_from_exprs("cosh(s)", "sinh(s)", 0.0, 2.0))
        verdict = classify_rectifying(dec)
        with pytest.raises(ValueError):
            check_rectifying_properties(dec, verdict)

    def test_invariant_spread_matches_drift(self):
        traj = synth_rectifying(0.0, 1.0, "1", (0.0, 2.0), step=1e-3, margin=0.05)
        curve = traj.to_curve(0.0, 2.0)
        spread = rectifying_drift(frenet_grid(curve), 0.0, 1.0)
        assert np.all(spread <= 1e-6)

    def test_zero_n1_rejected(self):
        with pytest.raises(ValueError):
            synth_rectifying(0.0, 0.0, "1", (0.0, 1.0))


class TestSynthNormalComponents:
    def test_zero_coefficients(self):
        out = synth_normal_components(1.0, 2.0, (0, 0, 0, 0), np.linspace(0, 1, 11))
        np.testing.assert_allclose(out.xi, 0.25, rtol=0, atol=1e-15)
        np.testing.assert_allclose(out.eta, 0.0, atol=1e-15)

    def test_hand_value_at_zero(self):
        out = synth_normal_components(1.0, 1.0, (1, 0, 0, 0), np.array([0.0]))
        assert out.xi[0] == pytest.approx(2.0, abs=1e-15)
        assert out.eta[0] == pytest.approx(1.0, abs=1e-15)

    def test_round_trip_through_sample_fit(self):
        from pgcurves.classify import fit_normal_samples

        rng = np.random.default_rng(11)
        for _ in range(5):
            kappa = rng.uniform(0.5, 5.0)
            tau = rng.uniform(0.3, 3.0) * rng.choice([-1.0, 1.0])
            c = tuple(rng.uniform(-1.0, 1.0, size=4))
            grid = np.linspace(0.0, 2.0, 161)
            out = synth_normal_components(kappa, tau, c, grid)
            fit = fit_normal_samples(out.s, out.xi, out.eta)
            assert fit.kappa0 == pytest.approx(kappa, abs=1e-8)
            assert fit.tau0 == pytest.approx(tau, abs=1e-8)
            for got, want in zip((fit.c1, fit.c2, fit.c3, fit.c4), c):
                assert got == pytest.approx(want, abs=1e-8)
