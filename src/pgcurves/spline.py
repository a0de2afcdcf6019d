"""Quintic not-a-knot interpolating splines and their derivatives.

A spline is a knot vector t and B-spline coefficients c of shape (n,), or
(n, m) for m curves on one grid.  interpolate solves the collocation system
with the not-a-knot end conditions (de Boor, A Practical Guide to Splines,
rev. ed. 2001, ch. XIII); derivatives transforms the coefficients by the
rules of ch. IX, and evaluate forms every order it returns from one
Cox-de Boor basis pass.

Every formula, and the order of every sum, is the one scipy's degree-5
not-a-knot interpolant, its BSpline.derivative and its evaluator use, so
the values equal scipy's bit for bit.  The banded solve is LAPACK dgbsv
from scipy's _flapack extension, loaded alone from its file on the first
fit: the very function scipy.linalg.lapack.dgbsv returns, without the
package scipy.linalg, whose import costs about 300 modules and 24 MB.
"""

import importlib.machinery
import importlib.util
from functools import cache
from pathlib import Path

import numpy as np
import scipy

K = 5  # the degree
# points per basis pass.  Measured in a long-running process, larger passes
# ran slower: their temporaries outgrow the allocator's reuse threshold and
# are mapped and page-faulted afresh on every call.
_CHUNK = 512


def interpolate(x, y):
    """Knots and coefficients of the quintic not-a-knot spline through (x, y).

    x must be strictly increasing with at least 6 points; y has shape (n,)
    or (n, m).
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("spline samples must be finite")
    n = x.size
    t = np.concatenate([np.full(K + 1, x[0]), x[3:-3], np.full(K + 1, x[-1])])
    # x[i] lies in knot interval K + clip(i - 2, 0, n - 6), so its basis
    # values fill columns start[i] .. start[i] + K of row i of A
    start = np.clip(np.arange(n) - 2, 0, n - 6)
    basis = np.empty((K + 1, n))
    for part, table in _passes(t, K, x, K + start, 1):
        basis[:, part] = table[0]
    # LAPACK band storage with kl = ku = K: A[i, j] sits at ab[2K + i - j, j].
    # Rows 2 .. n - 4 start at column i - 2, so their values fill whole rows
    # of ab; the five clamped rows at the ends go in one by one.
    ab = np.zeros((3 * K + 1, n), order="F")
    for a in range(K + 1):
        ab[2 * K + 2 - a, a:n - 5 + a] = basis[a, 2:n - 3]
    for i in (0, 1, n - 3, n - 2, n - 1):
        cols = start[i] + np.arange(K + 1)
        ab[2 * K + i - cols, cols] = basis[:, i]
    _, _, c, info = _dgbsv()(K, K, ab, y.reshape(n, -1).copy(),
                             overwrite_ab=True, overwrite_b=True)
    if info != 0:
        raise np.linalg.LinAlgError(f"collocation solve failed (dgbsv info {info})")
    return t, np.ascontiguousarray(c.reshape(y.shape))


@cache
def _dgbsv():
    """LAPACK dgbsv of scipy's _flapack extension, loaded once from its file.

    The module keeps its own name, scipy.linalg._flapack, so a later import
    of scipy.linalg gets the same module and the same function.  The
    top-level scipy import stays: on Windows it puts the bundled LAPACK on
    the DLL search path.
    """
    directory = Path(scipy.__file__).parent / "linalg"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = directory / f"_flapack{suffix}"
        if path.is_file():
            spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module.dgbsv
    raise ImportError(f"no LAPACK extension _flapack in {directory}")


def derivatives(t, c, orders):
    """Coefficients of the spline and its first `orders` derivatives, stacked.

    Row m holds the n - m coefficients of the m-th derivative, of degree
    K - m on t less m knots at each end, then m zeros.
    """
    n = c.shape[0]
    out = np.zeros((orders + 1,) + c.shape)
    out[0] = c
    for m in range(orders):
        c = out[m, :n - m]
        dt = t[K + 1:t.size - m - 1] - t[m + 1:t.size - K - 1]
        out[m + 1, :n - m - 1] = (c[1:] - c[:-1]) * (K - m) / _column(dt, c)
    return out


def evaluate(t, coefs, x):
    """Values at x of stacked splines, as derivatives returns them.

    Row i of coefs has degree p - i, where p = t.size - coefs.shape[1] - 1,
    on t less i knots at each end.  Outside [t[0], t[-1]] the end pieces
    extend.  Returns an array of shape (len(coefs),) + x.shape + coefs.shape[2:].
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    orders, size = coefs.shape[:2]
    degree = t.size - size - 1
    # points along the last axis, so every operation runs over them in one loop
    c = np.ascontiguousarray(np.moveaxis(coefs, 1, -1))
    out = np.empty(c.shape[:-1] + flat.shape)
    l = degree + np.searchsorted(t[degree + 1:t.size - degree - 1], flat, side="right")
    for part, table in _passes(t, degree, flat, l, orders):
        terms = np.take(c, l[part] - degree + np.arange(degree + 1)[:, None], axis=-1)
        terms *= table.reshape(orders, *(1,) * (c.ndim - 2), *table.shape[1:])
        # scipy's order: the sum starts at 0.0 and adds a = 0..degree; the
        # zero padding of lower degrees only adds zeros after their last term
        np.add.reduce(terms, axis=-2, initial=0.0, out=out[..., part])
    return np.moveaxis(out, -1, 1).reshape((orders,) + x.shape + c.shape[1:-1])


def _passes(t, degree, x, l, orders):
    """(slice, table) of _basis over x, _CHUNK points at a time."""
    for lo in range(0, x.size, _CHUNK):
        part = slice(lo, lo + _CHUNK)
        yield part, _basis(t, degree, x[part], l[part], orders)


def _basis(t, degree, x, l, orders):
    """Cox-de Boor table of the B-splines that are nonzero at each x.

    l is the knot interval of each x, t[l] <= x < t[l + 1], clamped to
    [degree, t.size - degree - 2].  table[i, :p + 1] holds B_{l-p..l} of
    degree p = degree - i, for i below orders (at most degree), and
    table[i, p + 1:] is zero.  Each level forms and sums its terms as de
    Boor's recurrence, and scipy's evaluator, do.
    """
    span = t[l + np.arange(1 - degree, degree + 1)[:, None]]
    above, below = span[degree:] - x, x - span[:degree]
    table = np.zeros((orders, degree + 1, x.size))
    b = np.ones((1, x.size))
    for j in range(1, degree + 1):
        w = b / (span[degree:degree + j] - span[degree - j:degree])
        b = table[degree - j, :j + 1] if degree - j < orders else np.zeros((j + 1, x.size))
        np.multiply(w, above[:j], out=b[:j])
        b[1:] += w * below[degree - j:]
    return table


def _column(v, c):
    """v shaped to broadcast along the first axis of c."""
    return v.reshape(v.shape + (1,) * (c.ndim - 1))
