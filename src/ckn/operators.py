"""The log change of variables from line profiles to radial functions, and
the integral-identity cross-checks built on top of it."""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import SupportWarning
from .grids import LineProfile, RadialProfile, log_uniform_radial_nodes
from .params import DerivedParams, derive_params, scaling_relation
from .quadrature import gauss_panels, sphere_area, weighted_radial_integral
from .radial_solver import _line_operators


def _transform_power(params: DerivedParams) -> float:
    # exponent m in u(r) = r^m w(-log r)
    return (4.0 - params.n - float(params.alpha)) / 2.0


def emden_fowler_inverse(w: LineProfile) -> RadialProfile:
    """u(r) = r^m w(-log r) sampled on the log-uniform radial nodes."""
    m = _transform_power(w.params)
    s = w.grid.s
    u = (w.values * np.exp(-m * s))[::-1]
    return RadialProfile(nodes=log_uniform_radial_nodes(w.grid), values=u, n=w.params.n)


def _spline_eval(spline: CubicSpline, t: np.ndarray, nu: int, L: float) -> np.ndarray:
    """Evaluate a derivative of the spline, zero outside [-L, L]."""
    out = np.zeros_like(t)
    inside = (t >= -L) & (t <= L)
    out[inside] = spline(t[inside], nu=nu)
    return out


def _spline_quadratic_form(
    spline: CubicSpline, gbar: float, gam: float
) -> float:
    """Exact integral of S''^2 + 2 gbar S'^2 + gam^2 S^2 over the knot span
    (4-point Gauss per interval is exact up to degree 7)."""
    pts, wts = gauss_panels(spline.x, 4)
    s0 = spline(pts)
    s1 = spline(pts, nu=1)
    s2 = spline(pts, nu=2)
    vals = s2**2 + 2.0 * gbar * s1**2 + gam**2 * s0**2
    return float(np.sum(wts * vals))


@dataclass(frozen=True)
class NormIdentityReport:
    lhs_q: float
    rhs_q: float
    lhs_quad: float
    rhs_quad: float
    rel_errors: Dict[str, float]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def norm_identity_check(w: LineProfile) -> NormIdentityReport:
    """Check the two change-of-variables integral identities on a line profile.

    Left sides are weighted radial integrals of the transformed u built from a
    cubic-spline representation of w; right sides are line quadratures of the
    |w|^q mass and of the quadratic form |w''|^2 + 2 gbar |w'|^2 + gam^2 |w|^2.

    rel_errors carries four entries: 'q' and 'quad' compare the high-accuracy
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
        zeros = {"q": 0.0, "quad": 0.0, "q_discrete": 0.0, "quad_discrete": 0.0}
        return NormIdentityReport(0.0, 0.0, 0.0, 0.0, zeros)

    spline = CubicSpline(w.grid.s, w.values, bc_type="natural")

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

    lhs_q = weighted_radial_integral(u_abs_q, n, -beta)
    lhs_quad = weighted_radial_integral(lap_u_sq, n, alpha)

    omega = sphere_area(n)
    rhs_q = omega * h * float(np.sum(np.abs(w.values) ** q))
    rhs_quad = omega * _spline_quadratic_form(spline, gbar, gam)

    # plain second-order rules for the rate diagnostics; the energy is the
    # line solver's form as sums of squares (x.(Ax) cancels terms ~ 1/h^4)
    x = w.values[1:-1]
    D2, D1 = _line_operators(w.grid)
    rhs_quad_fd = omega * h * float(
        np.sum((D2 @ x) ** 2 + 2.0 * gbar * (D1 @ x) ** 2 + gam**2 * x**2)
    )
    u = emden_fowler_inverse(w)
    lhs_q_trap = omega * float(np.trapezoid(
        u.nodes ** (n - 1 - beta) * np.abs(u.values) ** q, u.nodes
    ))

    rel_errors = {
        "q": _rel(lhs_q, rhs_q),
        "quad": _rel(lhs_quad, rhs_quad),
        "q_discrete": _rel(lhs_q_trap, rhs_q),
        "quad_discrete": _rel(rhs_quad_fd, lhs_quad),
    }
    return NormIdentityReport(
        lhs_q=lhs_q, rhs_q=rhs_q, lhs_quad=lhs_quad, rhs_quad=rhs_quad,
        rel_errors=rel_errors,
    )


@dataclass(frozen=True)
class ConjugateRescaleReport:
    u_tilde: RadialProfile
    tau: float
    g: float
    taug1_relerr: float
    taug2_relerr: float


def _support_domain(profile: RadialProfile):
    """The nodes three places outside the nonzero values, or None."""
    idx = np.nonzero(np.abs(profile.values) > 0.0)[0]
    if len(idx) == 0:
        return None
    lo = max(idx[0] - 3, 0)
    hi = min(idx[-1] + 3, len(profile.nodes) - 1)
    return float(profile.nodes[lo]), float(profile.nodes[hi])


def conjugate_rescale(
    u: RadialProfile,
    params: DerivedParams,
    alpha_tilde: float,
) -> ConjugateRescaleReport:
    """Remap u to the rescaled profile u~(r) = u(r^{1/tau}) and verify the two
    rescaling integral identities by quadrature."""
    n = params.n
    alpha = float(params.alpha)
    q = float(params.q)
    rel = scaling_relation(n, alpha, float(alpha_tilde))
    tau, g = float(rel.tau), float(rel.g)

    tilde_params = derive_params(n, float(alpha_tilde), q)
    beta = float(params.beta)
    beta_t = float(tilde_params.beta)

    nodes_t = u.nodes**tau
    vals_t = u.values.copy()
    if tau < 0:
        nodes_t, vals_t = nodes_t[::-1], vals_t[::-1]
    u_tilde = RadialProfile(nodes=nodes_t, values=vals_t, n=n)

    dom = _support_domain(u)
    dom_t = _support_domain(u_tilde)
    if dom is None or dom_t is None:
        return ConjugateRescaleReport(u_tilde, tau, g, 0.0, 0.0)

    def radial_moments(profile: RadialProfile, domain, p_mass, p_lap, p_grad):
        r0, r1 = domain
        spl = CubicSpline(profile.nodes, profile.values, bc_type="natural")
        mass = weighted_radial_integral(
            lambda r: np.abs(spl(r)) ** q, n, p_mass, domain=(r0, r1)
        )
        lap = weighted_radial_integral(
            lambda r: (spl(r, nu=2) + (n - 1) / r * spl(r, nu=1)) ** 2,
            n, p_lap, domain=(r0, r1),
        )
        grad = weighted_radial_integral(
            lambda r: spl(r, nu=1) ** 2, n, p_grad, domain=(r0, r1)
        )
        return mass, lap, grad

    mass, lap, _ = radial_moments(u, dom, -beta, alpha, alpha - 2.0)
    mass_t, lap_t, grad_t = radial_moments(u_tilde, dom_t, -beta_t, float(alpha_tilde),
                                           float(alpha_tilde) - 2.0)

    atau = abs(tau)
    taug1_relerr = _rel(mass, mass_t / atau)
    taug2_relerr = _rel(lap, atau**3 * (lap_t - g * grad_t))
    return ConjugateRescaleReport(
        u_tilde=u_tilde, tau=tau, g=g,
        taug1_relerr=taug1_relerr, taug2_relerr=taug2_relerr,
    )
