"""Dirichlet Laplace-Beltrami spectra of the sphere and the half-sphere,
and the derived Rellich constants and positivity predicates."""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .errors import ParameterDomainError
from .params import Real, gamma_alpha

FULL_SPHERE = "full-sphere"
HALF_SPHERE = "half-sphere"

# "is -gamma an eigenvalue" in float mode: within MEMBERSHIP_RTOL of the
# nearest level, but never beyond MEMBERSHIP_GAP_FRACTION of the gap
# 2k + n - 1 above it; the relative tolerance alone spans half a gap once
# |alpha| passes about 2e9, and every -gamma would count as a level
MEMBERSHIP_RTOL = 1e-9
MEMBERSHIP_GAP_FRACTION = 1e-3


@dataclass(frozen=True)
class SpectrumModel:
    """The Dirichlet spectrum of the full or half sphere S^(n-1): the levels
    k(n-2+k) for k >= 0, or for k >= 1 on the half sphere."""

    kind: str
    n: int

    def __post_init__(self):
        if self.kind not in (FULL_SPHERE, HALF_SPHERE):
            raise ParameterDomainError(f"unknown spectrum kind {self.kind!r}")
        if self.n < 2:
            raise ParameterDomainError("sphere spectra need a dimension n >= 2")

    @property
    def k_min(self) -> int:
        return 1 if self.kind == HALF_SPHERE else 0

    def sphere_eigenvalue(self, k: int) -> int:
        return k * (self.n - 2 + k)


def full_sphere(n: int) -> SpectrumModel:
    return SpectrumModel(kind=FULL_SPHERE, n=n)


def half_sphere(n: int) -> SpectrumModel:
    return SpectrumModel(kind=HALF_SPHERE, n=n)


def _nearest_sphere_level(model: SpectrumModel, target: Real) -> Tuple[int, Real]:
    """argmin over admissible k of |target - k(n-2+k)|, ties to smaller k:
    the floor of the root of (2k + n - 2)^2 = 4 target + (n-2)^2 or the next
    k, with isqrt finding the floor to within one.  A float of 2^52 or more
    is an integer and is compared in ints, as nearby levels need not fit a float."""
    exact = int(target) if isinstance(target, float) and abs(target) >= 2.0**52 else target
    n2 = model.n - 2
    disc = math.floor(4 * exact) + n2 * n2
    k0 = max(math.isqrt(max(disc, 0)) - n2, 0) // 2
    ks = range(max(model.k_min, k0 - 1), k0 + 3)
    dists = [abs(exact - k * (n2 + k)) for k in ks]
    i = dists.index(min(dists))
    return ks[i], dists[i] if exact is target else float(dists[i])


def spectral_distance(model: SpectrumModel, value: Real) -> Tuple[Real, Real]:
    """Distance from `value` to the spectrum, and the eigenvalue attaining it
    (the smallest one on ties)."""
    k, dist = _nearest_sphere_level(model, value)
    return dist, model.sphere_eigenvalue(k)


def _membership_tol(model: SpectrumModel, k: int) -> float:
    """How far a float -gamma may lie from the level of k and still count as on it."""
    return min(MEMBERSHIP_RTOL * max(1.0, float(model.sphere_eigenvalue(k))),
               MEMBERSHIP_GAP_FRACTION * (2 * k + model.n - 1))


def rellich_constant(model: SpectrumModel, n: int, alpha: Real) -> Real:
    """Best q=2 constant: squared distance of -gamma_alpha to the spectrum."""
    dist, _ = spectral_distance(model, -gamma_alpha(n, alpha))
    return dist * dist


@dataclass(frozen=True)
class PositivityPredicates:
    sq_positive: bool
    break_pos: bool
    lambda1: float
    lambda2: float


def positivity_predicates(model: SpectrumModel, n: int, alpha: Real) -> PositivityPredicates:
    """Whether the best constant is positive (-gamma off the spectrum) and
    whether the positivity-breaking condition -gamma > (l1+l2)/2 holds."""
    g = gamma_alpha(n, alpha)
    target = -g
    k, dist = _nearest_sphere_level(model, target)
    if isinstance(g, Fraction):
        member = dist == 0
    else:
        member = float(dist) <= _membership_tol(model, k)
    lam1, lam2 = (float(model.sphere_eigenvalue(k)) for k in (model.k_min, model.k_min + 1))
    return PositivityPredicates(
        sq_positive=not member,
        break_pos=target > (lam1 + lam2) / 2,
        lambda1=lam1,
        lambda2=lam2,
    )
