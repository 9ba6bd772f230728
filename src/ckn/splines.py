"""The interpolating spline of ckn: a not-a-knot B-spline of odd degree
(a radial profile that `critical` reads from a file).

It follows de Boor (A Practical Guide to Splines, 1978) in the
floating-point steps of scipy.interpolate's `make_interp_spline`, so it
returns the same bits."""
from __future__ import annotations

import numpy as np
from scipy.linalg import get_lapack_funcs


def _data(x, y, min_nodes: int):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.size < min_nodes:
        raise ValueError(f"the spline needs at least {min_nodes} nodes, got {x.size}")
    bad = np.flatnonzero(~(np.isfinite(x) & np.isfinite(y)))
    if bad.size:
        i = bad[0]
        raise ValueError(f"the spline needs finite data, got y={float(y[i])!r} at "
                         f"x={float(x[i])!r} ({bad.size} non-finite node(s))")
    if np.any(x[1:] <= x[:-1]):
        raise ValueError("spline nodes must be strictly increasing")
    return x, y


def _basis(t: np.ndarray, k: int, v: np.ndarray):
    """The interval l of each point, t[l] <= v < t[l+1] clipped to the
    spline's span, and the k+1 degree-k B-splines nonzero there,
    h[a] = B_(l-k+a) (de Boor's recurrence)."""
    ell = np.clip(np.searchsorted(t, v, "right") - 1, k, t.size - k - 2)
    h = np.zeros((k + 1, v.size))
    h[0] = 1.0
    for j in range(1, k + 1):
        hh = h[:j].copy()
        h[0] = 0.0
        for i in range(1, j + 1):
            xb, xa = t[ell + i], t[ell + i - j]
            same = xb == xa
            w = hh[i - 1] / np.where(same, 1.0, xb - xa)
            h[i - 1] = np.where(same, h[i - 1], h[i - 1] + w * (xb - v))
            h[i] = np.where(same, 0.0, w * (v - xa))
    return ell, h


class BSpline:
    """sum_j c[j] B_j(v) over the degree-k B-splines on the knots t."""

    def __init__(self, t: np.ndarray, c: np.ndarray, k: int):
        self.t, self.c, self.k = t, c, k

    def __call__(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        ell, h = _basis(self.t, self.k, v.ravel())
        out = np.zeros(v.size)
        for a in range(self.k + 1):
            out = out + self.c[ell + a - self.k] * h[a]
        return out.reshape(v.shape)

    def derivative(self) -> "BSpline":
        """The derivative, a spline of degree k - 1 on the knots t[1:-1]."""
        t, k = self.t, self.k
        c = np.r_[self.c, np.zeros(t.size - self.c.size)]
        c = (c[1:-1 - k] - c[:-2 - k]) * k / (t[k + 1:-1] - t[1:-k - 1])
        return BSpline(t[1:-1], np.r_[c, np.zeros(k)], k - 1)


def not_a_knot(x, y, k: int) -> BSpline:
    """The interpolating B-spline of odd degree k on at least k + 1 nodes, its
    interior knots the nodes without the (k + 1)/2 nearest each end."""
    x, y = _data(x, y, k + 1)
    m, n = (k - 1) // 2, x.size
    t = np.r_[(x[0],) * (k + 1), x[m + 1:-m - 1], (x[-1],) * (k + 1)]
    ell, h = _basis(t, k, x)
    # the collocation matrix in LAPACK's general band layout, kl = ku = k
    ab = np.zeros((3 * k + 1, n), order="F")
    for a in range(k + 1):
        col = ell - k + a
        ab[2 * k + np.arange(n) - col, col] = h[a]
    rhs = y.reshape(n, 1).copy()
    gbsv, = get_lapack_funcs(("gbsv",), (ab, rhs))
    _, _, c, info = gbsv(k, k, ab, rhs, overwrite_ab=True, overwrite_b=True)
    if info != 0:
        raise ValueError(f"the collocation matrix is singular (gbsv info {info})")
    return BSpline(t, c[:, 0], k)
