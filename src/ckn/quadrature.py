"""The panel Gauss-Legendre rule of ckn, and weighted radial quadrature
omega_n * int r^(n-1+p) f(r) dr on intervals and half-lines, with geometric
grading at singular endpoints and a tangent substitution for the tail."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .errors import DivergentWeightError, IntegrandError


def sphere_area(n: int) -> float:
    """Measure of the unit sphere S^(n-1), via log-Gamma to dodge overflow."""
    return math.exp(math.log(2.0) + 0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n))


@dataclass(frozen=True)
class QuadratureContext:
    """Panelized Gauss-Legendre settings.

    panel_order: nodes per panel; panel_count: panels on a smooth interval;
    grading_levels geometric panels, each half the width of the next, absorb
    a singular r -> 0 endpoint.
    """

    panel_order: int = 12
    panel_count: int = 64
    grading_levels: int = 80


DEFAULT_CTX = QuadratureContext()


def gauss_panels(edges, order: int) -> Tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule with `order` nodes on each panel
    [edges[i], edges[i+1]], panels of zero width dropped; nodes and
    weights run panel by panel, left to right."""
    a, b = _live_panels(edges)
    x, w = np.polynomial.legendre.leggauss(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


def _live_panels(edges) -> Tuple[np.ndarray, np.ndarray]:
    edges = np.asarray(edges, dtype=float)
    keep = edges[1:] > edges[:-1]
    return edges[:-1][keep], edges[1:][keep]


def _graded_panels(a: float, b: float, ctx: QuadratureContext) -> np.ndarray:
    """Panel edges on [a, b] accumulating geometrically toward a."""
    span = b - a
    edges = [b]
    for k in range(1, ctx.grading_levels + 1):
        edges.append(a + span * 0.5**k)
    edges.append(a)
    return np.array(edges[::-1])


def _panel_sum(vals: np.ndarray, edges: np.ndarray, order: int, where: str) -> float:
    """Sum of the weighted integrand values; IntegrandError names the first
    panel holding a non-finite one."""
    finite = np.isfinite(vals)
    if not np.all(finite):
        k = int(np.argmin(finite)) // order
        a, b = _live_panels(edges)
        raise IntegrandError(f"non-finite integrand on {where} [{a[k]}, {b[k]}]")
    return float(np.sum(vals))


def weighted_radial_integral(
    f: Callable[[np.ndarray], np.ndarray],
    n: int,
    p: float,
    domain: Tuple[float, float] = (0.0, math.inf),
    ctx: QuadratureContext = DEFAULT_CTX,
) -> float:
    """omega_n * int_domain r^(n-1+p) f(r) dr.

    The r -> 0 endpoint gets geometric panel grading; an infinite upper end
    is compactified with r = c + tan(theta).
    """
    a, b = float(domain[0]), float(domain[1])
    if a < 0 or b <= a:
        raise ValueError(f"bad radial domain {domain}")
    weight_pow = n - 1 + p
    if a == 0.0 and weight_pow <= -1.0:
        raise DivergentWeightError(
            f"r^{weight_pow} is not integrable at r=0 (need n-1+p > -1)"
        )
    omega = sphere_area(n)
    total = 0.0
    if math.isinf(b):
        cut = max(1.0, 2.0 * a)
        total += _finite_part(f, weight_pow, a, cut, ctx)
        total += _tail_part(f, weight_pow, cut, ctx)
    else:
        total += _finite_part(f, weight_pow, a, b, ctx)
    return omega * total


def _finite_part(f, weight_pow, a, b, ctx) -> float:
    if a == 0.0:
        edges = _graded_panels(a, b, ctx)
    elif b / a > 50.0:
        # wide ratio: log-spaced panels resolve power-law/log-scale structure
        edges = np.exp(np.linspace(math.log(a), math.log(b), ctx.panel_count + 1))
    else:
        edges = np.linspace(a, b, ctx.panel_count + 1)
    r, w = gauss_panels(edges, ctx.panel_order)
    vals = w * np.power(r, weight_pow) * np.asarray(f(r), dtype=float)
    return _panel_sum(vals, edges, ctx.panel_order, "panel")


def _tail_part(f, weight_pow, cut, ctx) -> float:
    # r = cut + tan(theta), theta in [0, pi/2)
    edges = np.linspace(0.0, 0.5 * math.pi, ctx.panel_count + 1)
    theta, w = gauss_panels(edges, ctx.panel_order)
    r = cut + np.tan(theta)
    jac = 1.0 / np.cos(theta) ** 2
    vals = w * np.power(r, weight_pow) * np.asarray(f(r), dtype=float) * jac
    return _panel_sum(vals, edges, ctx.panel_order, "tail panel")
