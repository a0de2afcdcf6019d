"""pgcurves.spline against scipy.interpolate.make_interp_spline, bit for bit."""

import numpy as np
import pytest
from scipy.interpolate import make_interp_spline

from pgcurves import spline


def _grid(kind):
    rng = np.random.default_rng(7)
    if kind == "uniform":
        return np.linspace(-1.3, 2.7, 101)
    if kind == "jittered":
        s = np.linspace(0.0, 2.0, 81)
        s[1:-1] += rng.uniform(-0.3, 0.3, 79) * (s[1] - s[0])
        return s
    if kind == "chebyshev":
        return 1.0 - 3.0 * np.cos(np.pi * np.arange(60) / 59)
    if kind == "minimum":
        return np.sort(rng.uniform(0.0, 1.0, 6))
    return np.linspace(0.0, 10.0, 10_001)


def _values(s, columns):
    y = np.column_stack([np.sin(3.0 * s) + s ** 2, np.cosh(0.3 * s), np.exp(-s) * s])
    return y[:, 0] if columns == 1 else y[:, :columns]


def _points(s):
    """The data sites, both end knots, and points beyond either end."""
    span = s[-1] - s[0]
    extra = np.random.default_rng(3).uniform(s[0] - 0.2 * span, s[-1] + 0.2 * span, 300)
    return np.concatenate([s, extra, [s[0], s[-1], s[0] - 0.5 * span, s[-1] + 0.5 * span]])


@pytest.mark.parametrize("columns", [1, 2])
@pytest.mark.parametrize("kind", ["uniform", "jittered", "chebyshev", "minimum", "large"])
def test_matches_make_interp_spline(kind, columns):
    s = _grid(kind)
    y = _values(s, columns)
    ref = make_interp_spline(s, y, k=5)
    t, c = spline.interpolate(s, y)
    assert np.array_equal(t, ref.t)
    assert np.array_equal(c, ref.c)

    x = _points(s)
    jets = spline.evaluate(t, spline.derivatives(t, c, 3), x)
    expected = [ref(x)] + [ref.derivative(m)(x) for m in (1, 2, 3)]
    for order, (got, want) in enumerate(zip(jets, expected)):
        assert got.shape == want.shape, order
        assert np.array_equal(got, want), order


@pytest.mark.parametrize("at", ["interior", "first", "last", "beyond"])
def test_scalar_point(at):
    s = _grid("jittered")
    y = _values(s, 1)
    ref = make_interp_spline(s, y, k=5)
    t, c = spline.interpolate(s, y)
    x = {"interior": 0.5 * (s[0] + s[-1]), "first": s[0], "last": s[-1],
         "beyond": s[-1] + 0.25}[at]
    got = spline.evaluate(t, spline.derivatives(t, c, 3), x)
    want = [ref(x)] + [ref.derivative(m)(x) for m in (1, 2, 3)]
    for g, w in zip(got, want):
        assert g.shape == w.shape == ()
        assert np.array_equal(g, w)


def test_non_finite_samples_rejected():
    s = np.linspace(0.0, 1.0, 10)
    y = np.ones(10)
    y[4] = np.nan
    with pytest.raises(ValueError, match="finite"):
        spline.interpolate(s, y)
