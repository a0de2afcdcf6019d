"""Integrator and synthesis tests: exact solutions, conservation, round trips."""

import math

import numpy as np
import pytest

from pgcurves.classify import (
    classify_rectifying,
    frame_components_arrays,
)
from pgcurves.dsl import DomainError
from pgcurves.frenet import frenet_grid
from pgcurves.space import ORIGIN, PGVector3
from pgcurves.synth import (
    InvalidProfile,
    integrate_frenet,
    profile,
    rectifying_drift,
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

    @pytest.mark.parametrize("window", [(-0.1, 1.0), (0.0, 2.1)])
    def test_to_curve_window_outside_range_rejected(self, window):
        traj = integrate_frenet(profile("1", "1", 0.0, 2.0), step=1e-2)
        with pytest.raises(ValueError, match="leaves the sample range"):
            traj.to_curve(*window)

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

    def test_start_position_shifts_the_curve(self):
        p = profile("1 + s^2/10", "sin(s)", 0.5, 2.5)
        r0 = PGVector3(-1.25, 3.5, 0.75)
        base, moved = integrate_frenet(p), integrate_frenet(p, r0=r0)
        for name in ("s", "t_y", "t_z", "n_y", "n_z", "b_y", "b_z"):
            np.testing.assert_array_equal(getattr(moved, name), getattr(base, name))
        np.testing.assert_array_equal(moved.r, base.r + np.array(r0.as_tuple()))


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
        assert verdict.signature_checks(1e-5) == (True, True, True, True)
        assert verdict.signatures_hold(1e-5)

    def test_negative_verdict_reports_signatures(self):
        from pgcurves.frenet import curve_from_exprs

        # alpha = s, beta = 1 and gamma = -s: only the tangential signature
        # holds, and tau/kappa = 1 has slope zero
        dec = _decompose(curve_from_exprs("cosh(s)", "sinh(s)", 0.0, 2.0))
        verdict = classify_rectifying(dec)
        assert not verdict.is_rectifying
        assert verdict.gamma_spread == pytest.approx(1.0, rel=1e-12)
        assert verdict.tau_abs_max == pytest.approx(1.0, rel=1e-12)
        assert verdict.signature_checks(1e-5) == (False, True, False, False)
        assert not verdict.signatures_hold(1e-5)

    def test_invariant_spread_matches_drift(self):
        traj = synth_rectifying(0.0, 1.0, "1", (0.0, 2.0), step=1e-3, margin=0.05)
        curve = traj.to_curve(0.0, 2.0)
        spread = rectifying_drift(frenet_grid(curve), 0.0, 1.0)
        assert np.all(spread <= 1e-6)

    def test_zero_n1_rejected(self):
        with pytest.raises(ValueError):
            synth_rectifying(0.0, 0.0, "1", (0.0, 1.0))
