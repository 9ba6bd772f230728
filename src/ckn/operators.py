"""The log change of variables from line profiles to radial functions, and
the integral-identity cross-checks built on top of it."""
from __future__ import annotations

import warnings
from typing import Dict

import numpy as np
import scipy.sparse as sp

from .errors import SupportWarning
from .grids import LineGrid, LineProfile, RadialProfile, log_uniform_radial_nodes
from .params import DerivedParams
from .quadrature import gauss_panels, sphere_area, weighted_radial_integral
from .splines import NaturalCubic


def _line_operators(grid: LineGrid):
    """Central differences (D2, D1) for w'' and w' on the interior unknowns
    (hard zeros at both ends): the FD rule of the line solver's form."""
    h = grid.h
    one = np.ones(grid.N - 2)
    D2 = sp.diags([one[:-1], -2.0 * one, one[:-1]], [-1, 0, 1]) / h**2
    D1 = sp.diags([-one[:-1], one[:-1]], [-1, 1]) / (2.0 * h)
    return D2, D1


def _transform_power(params: DerivedParams) -> float:
    # exponent m in u(r) = r^m w(-log r)
    return (4.0 - params.n - float(params.alpha)) / 2.0


def emden_fowler_inverse(w: LineProfile) -> RadialProfile:
    """u(r) = r^m w(-log r) sampled on the log-uniform radial nodes."""
    m = _transform_power(w.params)
    s = w.grid.s
    u = (w.values * np.exp(-m * s))[::-1]
    return RadialProfile(nodes=log_uniform_radial_nodes(w.grid), values=u, n=w.params.n)


def _spline_eval(spline: NaturalCubic, t: np.ndarray, nu: int, L: float) -> np.ndarray:
    """Evaluate a derivative of the spline, zero outside [-L, L]."""
    out = np.zeros_like(t)
    inside = (t >= -L) & (t <= L)
    out[inside] = spline(t[inside], nu=nu)
    return out


def _spline_quadratic_form(
    spline: NaturalCubic, gbar: float, gam: float
) -> float:
    """Exact integral of S''^2 + 2 gbar S'^2 + gam^2 S^2 over the knot span
    (4-point Gauss per interval is exact up to degree 7)."""
    pts, wts = gauss_panels(spline.x, 4)
    s0 = spline(pts)
    s1 = spline(pts, nu=1)
    s2 = spline(pts, nu=2)
    vals = s2**2 + 2.0 * gbar * s1**2 + gam**2 * s0**2
    return float(np.sum(wts * vals))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def norm_identity_check(w: LineProfile) -> Dict[str, float]:
    """Check the two change-of-variables integral identities on a line profile.

    Left sides are weighted radial integrals of the transformed u built from a
    cubic-spline representation of w; right sides are line quadratures of the
    |w|^q mass and of the quadratic form |w''|^2 + 2 gbar |w'|^2 + gam^2 |w|^2.

    Returns four relative errors: 'q' and 'quad' compare the high-accuracy
    evaluations of the two sides (the identity defect proper), while
    'q_discrete' and 'quad_discrete' compare against the plain second-order
    discrete rules (trapezoid on the radial samples, the line solver's
    finite-difference form on the interior line samples), whose defect
    shrinks at O(h^2).
    """
    p = w.params
    n = p.n
    alpha = float(p.alpha)
    q = float(p.q)
    beta = float(p.beta)
    gam = float(p.gamma)
    gbar = float(p.gbar)
    m = _transform_power(p)
    L, h = w.grid.L, w.grid.h

    if w.boundary_magnitude() > 1e-12:
        warnings.warn(
            "profile is not negligible at the truncation boundary; the "
            "compact-support identities may not hold",
            SupportWarning,
            stacklevel=2,
        )

    if not np.any(w.values):
        return {"q": 0.0, "quad": 0.0, "q_discrete": 0.0, "quad_discrete": 0.0}

    spline = NaturalCubic(w.grid.s, w.values)

    def u_abs_q(r: np.ndarray) -> np.ndarray:
        t = -np.log(r)
        sv = _spline_eval(spline, t, 0, L)
        out = np.zeros_like(r)
        mask = sv != 0.0
        # |u|^q = exp(-m q t) |w(t)|^q, assembled in log space to dodge
        # overflow in the separate factors
        out[mask] = np.exp(-m * q * t[mask] + q * np.log(np.abs(sv[mask])))
        return out

    def lap_u_sq(r: np.ndarray) -> np.ndarray:
        t = -np.log(r)
        s0 = _spline_eval(spline, t, 0, L)
        s1 = _spline_eval(spline, t, 1, L)
        s2 = _spline_eval(spline, t, 2, L)
        bracket = s2 + (alpha - 2.0) * s1 - gam * s0
        out = np.zeros_like(r)
        mask = bracket != 0.0
        out[mask] = np.exp(
            -2.0 * (m - 2.0) * t[mask] + 2.0 * np.log(np.abs(bracket[mask]))
        )
        return out

    mass_radial = weighted_radial_integral(u_abs_q, n, -beta)
    energy_radial = weighted_radial_integral(lap_u_sq, n, alpha)

    omega = sphere_area(n)
    mass_line = omega * h * float(np.sum(np.abs(w.values) ** q))
    energy_line = omega * _spline_quadratic_form(spline, gbar, gam)

    # plain second-order rules for the rate diagnostics; the energy is the
    # line solver's form as sums of squares (x.(Ax) cancels terms ~ 1/h^4)
    x = w.values[1:-1]
    D2, D1 = _line_operators(w.grid)
    energy_fd = omega * h * float(
        np.sum((D2 @ x) ** 2 + 2.0 * gbar * (D1 @ x) ** 2 + gam**2 * x**2)
    )
    u = emden_fowler_inverse(w)
    mass_trap = omega * float(np.trapezoid(
        u.nodes ** (n - 1 - beta) * np.abs(u.values) ** q, u.nodes
    ))

    return {
        "q": _rel(mass_radial, mass_line),
        "quad": _rel(energy_radial, energy_line),
        "q_discrete": _rel(mass_trap, mass_line),
        "quad_discrete": _rel(energy_fd, energy_radial),
    }
