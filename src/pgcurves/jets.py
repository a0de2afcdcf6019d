"""Degree-3 Taylor jets: values carrying exact derivatives up to third order.

A Jet3 stores (f, f', f'', f''') of a scalar function of one variable at a
point.  Arithmetic propagates the derivatives through +, -, *, /, powers and
the elementary functions, so third derivatives come out exact to rounding
instead of through finite differences.  Components may be floats or numpy
arrays of a common broadcastable shape; every rule is elementwise.
"""

from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """Evaluation left the domain of a primitive (log/sqrt of a negative
    number, division by zero, non-finite result)."""


def _as_jet(x) -> "Jet3":
    if isinstance(x, Jet3):
        return x
    return Jet3(x, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class Jet3:
    """Value and first three derivatives with respect to the curve parameter."""

    v: float
    d1: float
    d2: float
    d3: float

    # Defer mixed ndarray <op> Jet3 expressions to the reflected operators
    # below instead of numpy broadcasting over the dataclass.
    __array_ufunc__ = None

    def __add__(self, other):
        o = _as_jet(other)
        return Jet3(self.v + o.v, self.d1 + o.d1, self.d2 + o.d2, self.d3 + o.d3)

    __radd__ = __add__

    def __sub__(self, other):
        o = _as_jet(other)
        return Jet3(self.v - o.v, self.d1 - o.d1, self.d2 - o.d2, self.d3 - o.d3)

    def __rsub__(self, other):
        return _as_jet(other).__sub__(self)

    def __neg__(self):
        return Jet3(-self.v, -self.d1, -self.d2, -self.d3)

    def __mul__(self, other):
        o = _as_jet(other)
        # Leibniz rule truncated at third order.
        return Jet3(
            self.v * o.v,
            self.d1 * o.v + self.v * o.d1,
            self.d2 * o.v + 2.0 * self.d1 * o.d1 + self.v * o.d2,
            self.d3 * o.v + 3.0 * self.d2 * o.d1 + 3.0 * self.d1 * o.d2 + self.v * o.d3,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _as_jet(other)
        if np.any(np.asarray(o.v) == 0.0):
            raise DomainError("division by zero")
        # Solve w * o = self order by order.
        w0 = self.v / o.v
        w1 = (self.d1 - w0 * o.d1) / o.v
        w2 = (self.d2 - w0 * o.d2 - 2.0 * w1 * o.d1) / o.v
        w3 = (self.d3 - w0 * o.d3 - 3.0 * w1 * o.d2 - 3.0 * w2 * o.d1) / o.v
        return Jet3(w0, w1, w2, w3)

    def __rtruediv__(self, other):
        return _as_jet(other).__truediv__(self)

    def is_finite(self) -> bool:
        return bool(
            np.all(np.isfinite(self.v))
            and np.all(np.isfinite(self.d1))
            and np.all(np.isfinite(self.d2))
            and np.all(np.isfinite(self.d3))
        )


def jet_variable(s) -> Jet3:
    """Jet of the identity function at s (s may be a float or an array)."""
    if isinstance(s, np.ndarray):
        s = s.astype(float)
        zero = np.zeros(s.shape)
        return Jet3(s, np.ones(s.shape), zero, zero)
    return Jet3(float(s), 1.0, 0.0, 0.0)


def jet_constant(c) -> Jet3:
    return Jet3(float(c), 0.0, 0.0, 0.0)


def _is_constant(u: Jet3) -> bool:
    return bool(np.all(np.asarray(u.d1) == 0.0) and np.all(np.asarray(u.d2) == 0.0)
                and np.all(np.asarray(u.d3) == 0.0))


def _compose(u: Jet3, f0, f1, f2, f3) -> Jet3:
    """Chain rule up to third order for a primitive with derivatives f1..f3 at u.v."""
    return Jet3(
        f0,
        f1 * u.d1,
        f2 * u.d1 * u.d1 + f1 * u.d2,
        f3 * u.d1 * u.d1 * u.d1 + 3.0 * f2 * u.d1 * u.d2 + f1 * u.d3,
    )


def jet_sin(u: Jet3) -> Jet3:
    s, c = np.sin(u.v), np.cos(u.v)
    return _compose(u, s, c, -s, -c)


def jet_cos(u: Jet3) -> Jet3:
    s, c = np.sin(u.v), np.cos(u.v)
    return _compose(u, c, -s, -c, s)


def jet_sinh(u: Jet3) -> Jet3:
    sh, ch = np.sinh(u.v), np.cosh(u.v)
    return _compose(u, sh, ch, sh, ch)


def jet_cosh(u: Jet3) -> Jet3:
    sh, ch = np.sinh(u.v), np.cosh(u.v)
    return _compose(u, ch, sh, ch, sh)


def jet_tanh(u: Jet3) -> Jet3:
    t = np.tanh(u.v)
    sech2 = 1.0 - t * t
    return _compose(u, t, sech2, -2.0 * t * sech2, sech2 * (6.0 * t * t - 2.0))


def jet_exp(u: Jet3) -> Jet3:
    e = np.exp(u.v)
    return _compose(u, e, e, e, e)


def jet_log(u: Jet3) -> Jet3:
    if np.any(np.asarray(u.v) <= 0.0):
        raise DomainError("log of non-positive argument")
    v = u.v
    return _compose(u, np.log(v), 1.0 / v, -1.0 / (v * v), 2.0 / (v * v * v))


def jet_sqrt(u: Jet3) -> Jet3:
    v = np.asarray(u.v)
    if np.any(v < 0.0):
        raise DomainError("sqrt of negative argument")
    if np.any(v == 0.0):
        if _is_constant(u):
            zero = np.zeros_like(np.sqrt(v))
            return Jet3(np.sqrt(u.v), zero, zero, zero)
        raise DomainError("sqrt at zero has unbounded derivative")
    r = np.sqrt(u.v)
    return _compose(u, r, 0.5 / r, -0.25 / (u.v * r), 0.375 / (u.v * u.v * r))


def jet_abs(u: Jet3) -> Jet3:
    if _is_constant(u):
        zero = np.zeros_like(np.abs(np.asarray(u.v, dtype=float)))
        if zero.ndim == 0:
            zero = 0.0
        return Jet3(np.abs(u.v), zero, zero, zero)
    if np.any(np.asarray(u.v) == 0.0):
        raise DomainError("abs at zero is not differentiable")
    sg = np.sign(u.v)
    return Jet3(np.abs(u.v), sg * u.d1, sg * u.d2, sg * u.d3)


def jet_pow(u: Jet3, p: float) -> Jet3:
    """u raised to a constant exponent p.

    Integer exponents are evaluated by repeated squaring, which is valid for
    any base including zero and takes O(log |p|) jet multiplications;
    fractional exponents need a positive base.
    """
    if p == round(p):
        n = int(round(p))
        if n == 0:
            return Jet3(np.ones_like(np.asarray(u.v, dtype=float)) if isinstance(u.v, np.ndarray) else 1.0,
                        0.0, 0.0, 0.0)
        result = _int_pow(u, abs(n))
        if n < 0:
            return 1.0 / result
        return result
    if np.any(np.asarray(u.v) <= 0.0):
        raise DomainError("fractional power of non-positive base")
    v = u.v
    f0 = v ** p
    f1 = p * v ** (p - 1.0)
    f2 = p * (p - 1.0) * v ** (p - 2.0)
    f3 = p * (p - 1.0) * (p - 2.0) * v ** (p - 3.0)
    return _compose(u, f0, f1, f2, f3)


def _int_pow(u: Jet3, n: int) -> Jet3:
    result = None
    base = u
    while n:
        if n & 1:
            result = base if result is None else result * base
        base = base * base
        n >>= 1
    return result


JET_FUNCTIONS = {
    "sin": jet_sin,
    "cos": jet_cos,
    "sinh": jet_sinh,
    "cosh": jet_cosh,
    "tanh": jet_tanh,
    "exp": jet_exp,
    "log": jet_log,
    "sqrt": jet_sqrt,
    "abs": jet_abs,
}
