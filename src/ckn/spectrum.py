"""Dirichlet Laplace-Beltrami spectra on spherical domains and the derived
Rellich constants and positivity predicates."""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .errors import (ConsistencyError, InsufficientSpectrumError,
                     ParameterDomainError)
from .params import Real, gamma_alpha

FULL_SPHERE = "full-sphere"
HALF_SPHERE = "half-sphere"
EXPLICIT = "explicit-list"

# relative tolerance for "is -gamma an eigenvalue" in float mode
MEMBERSHIP_RTOL = 1e-9


@dataclass(frozen=True)
class SpectrumModel:
    """A Dirichlet spectrum: full/half sphere in dimension n, or a sorted
    explicit list of eigenvalues."""

    kind: str
    n: Optional[int] = None
    eigenvalues: Tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.kind in (FULL_SPHERE, HALF_SPHERE):
            if self.n is None or self.n < 2:
                raise ParameterDomainError("sphere spectra need a dimension n >= 2")
        elif self.kind == EXPLICIT:
            evs = self.eigenvalues
            if not evs:
                raise InsufficientSpectrumError("explicit spectrum is empty")
            if any(b <= a for a, b in zip(evs, evs[1:])):
                raise ParameterDomainError("explicit eigenvalues must be strictly increasing")
            if evs[0] < 0:
                raise ParameterDomainError("eigenvalues must be nonnegative")
        else:
            raise ParameterDomainError(f"unknown spectrum kind {self.kind!r}")

    @property
    def k_min(self) -> int:
        return 1 if self.kind == HALF_SPHERE else 0

    def sphere_eigenvalue(self, k: int) -> int:
        if self.n is None:
            raise ConsistencyError(f"a {self.kind} spectrum has no sphere levels")
        return k * (self.n - 2 + k)

    def first_two(self) -> Tuple[float, float]:
        """lambda_1 and lambda_2 (the two lowest eigenvalues)."""
        if self.kind == EXPLICIT:
            if len(self.eigenvalues) < 2:
                raise InsufficientSpectrumError(
                    "need at least two eigenvalues for the positivity predicate"
                )
            return self.eigenvalues[0], self.eigenvalues[1]
        k0 = self.k_min
        return float(self.sphere_eigenvalue(k0)), float(self.sphere_eigenvalue(k0 + 1))


def full_sphere(n: int) -> SpectrumModel:
    return SpectrumModel(kind=FULL_SPHERE, n=n)


def half_sphere(n: int) -> SpectrumModel:
    return SpectrumModel(kind=HALF_SPHERE, n=n)


def explicit_spectrum(eigenvalues: Sequence[float]) -> SpectrumModel:
    return SpectrumModel(kind=EXPLICIT, eigenvalues=tuple(float(x) for x in eigenvalues))


def _nearest_sphere_level(model: SpectrumModel, target: Real) -> Tuple[int, Real]:
    """argmin over admissible k of |target - k(n-2+k)|, ties to smaller k."""
    k = model.k_min
    best_k, best = k, abs(target - model.sphere_eigenvalue(k))
    while True:
        k += 1
        d = abs(target - model.sphere_eigenvalue(k))
        if d < best:
            best_k, best = k, d
        elif model.sphere_eigenvalue(k) >= target:
            # the sequence is increasing, no later level can come closer
            break
    return best_k, best


def spectral_distance(model: SpectrumModel, value: Real) -> Tuple[Real, Real]:
    """Distance from `value` to the spectrum, and the eigenvalue attaining it
    (the smallest one on ties)."""
    if model.kind == EXPLICIT:
        nearest = min(model.eigenvalues, key=lambda ev: abs(value - ev))
        return abs(value - nearest), nearest
    k, dist = _nearest_sphere_level(model, value)
    return dist, model.sphere_eigenvalue(k)


@dataclass(frozen=True)
class RellichConstant:
    value: Real


def rellich_constant(model: SpectrumModel, n: int, alpha: Real) -> RellichConstant:
    """Best q=2 constant: squared distance of -gamma_alpha to the spectrum."""
    dist, _ = spectral_distance(model, -gamma_alpha(n, alpha))
    return RellichConstant(value=dist * dist)


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
    dist, nearest = spectral_distance(model, target)
    if isinstance(g, Fraction):
        member = dist == 0
    else:
        member = float(dist) <= MEMBERSHIP_RTOL * max(1.0, abs(float(nearest)))
    lam1, lam2 = model.first_two()
    return PositivityPredicates(
        sq_positive=not member,
        break_pos=target > (lam1 + lam2) / 2,
        lambda1=lam1,
        lambda2=lam2,
    )
