"""The integral identities of the log change of variables u(r) =
r^m w(-log r) from line profiles to radial functions, checked on one
profile."""
from __future__ import annotations

import math
import warnings
from typing import Dict

import numpy as np

from .errors import SupportWarning
from .grids import LineGrid, log_uniform_radial_nodes
from .params import DerivedParams
from .quadrature import sphere_area, weighted_radial_integral


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def norm_identity_check(params: DerivedParams, grid: LineGrid) -> Dict[str, float]:
    """Check the two change-of-variables integral identities on the line
    profile w(s) = exp(-s^2).

    Left sides are weighted radial integrals of u(r) = r^m w(-log r), from
    the exact w, w' = -2s w and w'' = (4s^2 - 2) w; right sides are the
    closed forms of the |w|^q mass, sqrt(pi/q), and of the quadratic form
    int |w''|^2 + 2 gbar |w'|^2 + gam^2 |w|^2 = sqrt(pi/2)(3 + 2 gbar + gam^2).

    Returns four relative errors: 'q' and 'quad' compare the quadratures
    with the closed forms (the identity defect proper), while 'q_discrete'
    and 'quad_discrete' compare against the plain second-order discrete
    rules on the samples of w on `grid` (trapezoid on the radial samples,
    the line solver's finite-difference form on the interior line samples),
    whose defect shrinks at O(h^2).
    """
    n = params.n
    alpha = float(params.alpha)
    q = float(params.q)
    beta = float(params.beta)
    gam = float(params.gamma)
    gbar = float(params.gbar)
    m = (4.0 - n - alpha) / 2.0  # u(r) = r^m w(-log r)
    L, h = grid.L, grid.h

    if math.exp(-L * L) > 1e-12:
        warnings.warn(
            "profile is not negligible at the truncation boundary; the "
            "compact-support identities may not hold",
            SupportWarning,
            stacklevel=2,
        )

    # |u|^q and |Delta u|^2 are assembled in log space, where |w| = exp(-t^2),
    # to dodge overflow in the separate factors
    def u_abs_q(r: np.ndarray) -> np.ndarray:
        t = -np.log(r)
        return np.exp(-q * (m * t + t * t))

    def lap_u_sq(r: np.ndarray) -> np.ndarray:
        t = -np.log(r)
        # (w'' + (alpha - 2) w' - gam w) / w
        poly = 4.0 * t * t - 2.0 - 2.0 * (alpha - 2.0) * t - gam
        out = np.zeros_like(r)
        mask = poly != 0.0
        tm = t[mask]
        out[mask] = np.exp(-2.0 * ((m - 2.0) * tm + tm * tm)
                           + 2.0 * np.log(np.abs(poly[mask])))
        return out

    mass_radial = weighted_radial_integral(u_abs_q, n, -beta)
    energy_radial = weighted_radial_integral(lap_u_sq, n, alpha)

    omega = sphere_area(n)
    mass_line = omega * math.sqrt(math.pi / q)
    energy_line = omega * math.sqrt(0.5 * math.pi) * (3.0 + 2.0 * gbar + gam**2)

    # plain second-order rules for the rate diagnostics; the energy is the
    # line solver's form, between hard zeros at s = -L and L, as sums of
    # squares (x.(Ax) cancels terms ~ 1/h^4)
    w = np.exp(-grid.s**2)
    x = np.pad(w[1:-1], 1)
    d2 = np.diff(x, 2) / h**2
    d1 = (x[2:] - x[:-2]) / (2.0 * h)
    energy_fd = omega * h * float(
        np.sum(d2**2 + 2.0 * gbar * d1**2 + gam**2 * x[1:-1] ** 2)
    )
    # m q = beta - n, so r^(n-1-beta) |u|^q = |w(-log r)|^q / r: no factor
    # overflows
    r = log_uniform_radial_nodes(grid)
    mass_trap = omega * float(np.trapezoid(np.abs(w[::-1]) ** q / r, r))

    return {
        "q": _rel(mass_radial, mass_line),
        "quad": _rel(energy_radial, energy_line),
        "q_discrete": _rel(mass_trap, mass_line),
        "quad_discrete": _rel(energy_fd, energy_radial),
    }
