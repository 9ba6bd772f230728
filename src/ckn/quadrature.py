"""The panel Gauss-Legendre rule of ckn, and weighted radial quadrature
omega_n * int r^(n-1+p) f(r) dr on intervals and half-lines, with geometric
grading at singular endpoints and a tangent substitution for the tail."""
from __future__ import annotations

import functools
import math
from typing import Callable, Tuple

import numpy as np

from .errors import DivergentWeightError, IntegrandError


def sphere_area(n: int) -> float:
    """Measure of the unit sphere S^(n-1), via log-Gamma to dodge overflow."""
    return math.exp(math.log(2.0) + 0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n))


# Gauss nodes per panel, panels on a smooth interval, and geometric panels,
# each half the width of the next, that absorb a singular r -> 0 endpoint; a
# doubled rule takes twice the panels and 40 more grading levels
PANEL_ORDER = 12
PANEL_COUNT = 64
GRADING_LEVELS = 80


@functools.cache
def _legendre_rule(order: int) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the `order`-point rule on [-1, 1], read-only:
    every caller shares them."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_panels(edges, order: int) -> Tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule with `order` nodes on each panel
    [edges[i], edges[i+1]], panels of zero width dropped; nodes and
    weights run panel by panel, left to right."""
    a, b = _live_panels(edges)
    x, w = _legendre_rule(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


def _live_panels(edges) -> Tuple[np.ndarray, np.ndarray]:
    edges = np.asarray(edges, dtype=float)
    keep = edges[1:] > edges[:-1]
    return edges[:-1][keep], edges[1:][keep]


def _panel_sum(f, weight_pow: float, edges: np.ndarray, cut=None) -> float:
    """Gauss sum of r^weight_pow f(r) dr over the panels `edges` in r or, for
    a tail past `cut`, in theta with r = cut + tan(theta); IntegrandError
    names the first panel holding a non-finite term."""
    x, w = gauss_panels(edges, PANEL_ORDER)
    r, jac = (x, 1.0) if cut is None else (cut + np.tan(x), 1.0 / np.cos(x) ** 2)
    vals = w * np.power(r, weight_pow) * np.asarray(f(r), dtype=float) * jac
    finite = np.isfinite(vals)
    if not np.all(finite):
        k = int(np.argmin(finite)) // PANEL_ORDER
        a, b = _live_panels(edges)
        where = "panel" if cut is None else "tail panel"
        raise IntegrandError(f"non-finite integrand on {where} [{a[k]}, {b[k]}]")
    return float(np.sum(vals))


def weighted_radial_integral(
    f: Callable[[np.ndarray], np.ndarray],
    n: int,
    p: float,
    domain: Tuple[float, float] = (0.0, math.inf),
    doubled: bool = False,
) -> float:
    """omega_n * int_domain r^(n-1+p) f(r) dr.

    The r -> 0 endpoint gets geometric panel grading; an infinite upper end
    is compactified with r = c + tan(theta).  `doubled` takes the finer rule.
    """
    a, b = float(domain[0]), float(domain[1])
    if a < 0 or b <= a:
        raise ValueError(f"bad radial domain {domain}")
    weight_pow = n - 1 + p
    if a == 0.0 and weight_pow <= -1.0:
        raise DivergentWeightError(
            f"r^{weight_pow} is not integrable at r=0 (need n-1+p > -1)"
        )
    panels = PANEL_COUNT * (2 if doubled else 1)
    top = max(1.0, 2.0 * a) if math.isinf(b) else b
    if a == 0.0:
        # panels [top 2^-(k+1), top 2^-k], then [0, top 2^-levels]
        levels = GRADING_LEVELS + (40 if doubled else 0)
        edges = np.append(0.0, top * 0.5 ** np.arange(levels, -1, -1))
    else:
        edges = np.linspace(a, top, panels + 1)
    total = _panel_sum(f, weight_pow, edges)
    if math.isinf(b):
        theta = np.linspace(0.0, 0.5 * math.pi, panels + 1)
        total += _panel_sum(f, weight_pow, theta, cut=top)
    return sphere_area(n) * total
