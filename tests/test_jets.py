"""Jet arithmetic tests against hand derivatives and finite differences."""

import math

import numpy as np
import pytest

from pgcurves.jets import (
    DomainError,
    Jet3,
    jet_abs,
    jet_cos,
    jet_cosh,
    jet_exp,
    jet_log,
    jet_pow,
    jet_sin,
    jet_sinh,
    jet_sqrt,
    jet_tanh,
    jet_variable,
)


def assert_jet_close(jet, expected, tol=1e-12):
    got = (jet.v, jet.d1, jet.d2, jet.d3)
    for g, e in zip(got, expected):
        assert g == pytest.approx(e, rel=tol, abs=tol), (got, expected)


class TestArithmetic:
    def test_product_rule_by_hand(self):
        # (s^2) * (s^3) at s=2: value 32, d1 80, d2 160, d3 240
        s = jet_variable(2.0)
        u = s * s
        v = s * s * s
        assert_jet_close(u * v, (32.0, 80.0, 160.0, 240.0))

    def test_division_inverts_product(self):
        s = jet_variable(1.7)
        u = jet_sin(s) + 2.5
        v = jet_cosh(s)
        assert_jet_close((u * v) / v, (u.v, u.d1, u.d2, u.d3), tol=1e-13)

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            jet_variable(0.0) / Jet3(0.0, 1.0, 0.0, 0.0)

    def test_scalar_mixing(self):
        s = jet_variable(3.0)
        assert_jet_close(2.0 * s + 1.0, (7.0, 2.0, 0.0, 0.0))
        assert_jet_close(1.0 - s, (-2.0, -1.0, 0.0, 0.0))
        assert_jet_close(6.0 / s, (2.0, -2.0 / 3.0, 4.0 / 9.0, -4.0 / 9.0))


class TestFunctions:
    def test_cosh_at_zero(self):
        assert_jet_close(jet_cosh(jet_variable(0.0)), (1.0, 0.0, 1.0, 0.0))

    def test_sin_hand_values(self):
        x = 0.9
        assert_jet_close(jet_sin(jet_variable(x)),
                         (math.sin(x), math.cos(x), -math.sin(x), -math.cos(x)))

    def test_log_derivatives(self):
        x = 2.0
        assert_jet_close(jet_log(jet_variable(x)), (math.log(2.0), 0.5, -0.25, 0.25))

    def test_log_domain(self):
        with pytest.raises(DomainError):
            jet_log(jet_variable(-1.0))
        with pytest.raises(DomainError):
            jet_log(jet_variable(0.0))

    def test_sqrt_derivatives(self):
        x = 4.0
        assert_jet_close(jet_sqrt(jet_variable(x)),
                         (2.0, 0.25, -1.0 / 32.0, 3.0 / 256.0))

    def test_sqrt_domain(self):
        with pytest.raises(DomainError):
            jet_sqrt(jet_variable(-4.0))
        with pytest.raises(DomainError):
            jet_sqrt(jet_variable(0.0))
        # constant zero is fine: the function is constant there
        assert_jet_close(jet_sqrt(Jet3(0.0, 0.0, 0.0, 0.0)), (0.0, 0.0, 0.0, 0.0))

    def test_abs(self):
        assert_jet_close(jet_abs(jet_variable(-2.0)), (2.0, -1.0, 0.0, 0.0))
        assert_jet_close(jet_abs(jet_variable(2.0)), (2.0, 1.0, 0.0, 0.0))
        with pytest.raises(DomainError):
            jet_abs(jet_variable(0.0))

    def test_tanh_against_composition(self):
        # tanh = sinh / cosh must match the dedicated rule
        s = jet_variable(0.6)
        direct = jet_tanh(s)
        composed = jet_sinh(s) / jet_cosh(s)
        assert_jet_close(direct, (composed.v, composed.d1, composed.d2, composed.d3),
                         tol=1e-14)

    @pytest.mark.parametrize("fn,point", [
        (jet_sin, 0.7), (jet_cos, 1.3), (jet_sinh, 0.7), (jet_cosh, 1.3),
        (jet_tanh, 0.7), (jet_exp, 0.4), (jet_log, 1.7), (jet_sqrt, 2.3),
    ])
    def test_against_finite_differences(self, fn, point):
        def value(x):
            return fn(jet_variable(x)).v

        jet = fn(jet_variable(point))
        h = 1e-5
        d1_fd = (value(point + h) - value(point - h)) / (2 * h)
        d2_fd = (value(point + h) - 2 * value(point) + value(point - h)) / h**2
        assert jet.d1 == pytest.approx(d1_fd, rel=1e-8, abs=1e-8)
        assert jet.d2 == pytest.approx(d2_fd, rel=1e-5, abs=1e-5)


class TestPow:
    def test_integer_power(self):
        assert_jet_close(jet_pow(jet_variable(3.0), 2) * 0.5, (4.5, 3.0, 1.0, 0.0))

    def test_integer_power_at_zero(self):
        assert_jet_close(jet_pow(jet_variable(0.0), 3), (0.0, 0.0, 0.0, 6.0))

    def test_negative_integer_power(self):
        # s^-2 at 2: 0.25, -0.25, 0.375, -0.75
        assert_jet_close(jet_pow(jet_variable(2.0), -2), (0.25, -0.25, 0.375, -0.75))

    def test_negative_base_integer_exponent(self):
        assert_jet_close(jet_pow(jet_variable(-2.0), 3), (-8.0, 12.0, -12.0, 6.0))

    @pytest.mark.parametrize("p, expected", [
        (65, (-1.0, 65.0, -4160.0, 262080.0)),
        (100, (1.0, -100.0, 9900.0, -970200.0)),
    ])
    def test_integer_exponent_above_64_at_negative_base(self, p, expected):
        # s^p at -1: p (-1)^(p-1), p (p-1) (-1)^(p-2), p (p-1) (p-2) (-1)^(p-3)
        assert_jet_close(jet_pow(jet_variable(-1.0), p), expected)

    def test_fractional_power(self):
        jet = jet_pow(jet_variable(4.0), 0.5)
        ref = jet_sqrt(jet_variable(4.0))
        assert_jet_close(jet, (ref.v, ref.d1, ref.d2, ref.d3), tol=1e-14)

    def test_fractional_power_domain(self):
        with pytest.raises(DomainError):
            jet_pow(jet_variable(-1.0), 0.5)


class TestArrays:
    def test_elementwise(self):
        s = jet_variable(np.array([0.0, 1.0, 2.0]))
        jet = jet_cosh(s)
        np.testing.assert_allclose(jet.v, np.cosh([0.0, 1.0, 2.0]))
        np.testing.assert_allclose(jet.d1, np.sinh([0.0, 1.0, 2.0]))

    def test_scalar_broadcast(self):
        s = jet_variable(np.array([1.0, 2.0]))
        jet = s * 3.0 + 1.0
        np.testing.assert_allclose(jet.v, [4.0, 7.0])
        np.testing.assert_allclose(jet.d1, [3.0, 3.0])
