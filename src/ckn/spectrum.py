"""Dirichlet Laplace-Beltrami spectra of the sphere and the half-sphere,
and the derived Rellich constants and positivity predicates, decided
exactly: with |alpha - 2| = p/den and rho_k = 2k + n - 2, 4 den^2 times
-gamma_alpha - k(n-2+k) is the int (p - rho_k den)(p + rho_k den)."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .errors import ParameterDomainError
from .params import Real, shift_ratio

FULL_SPHERE = "full-sphere"
HALF_SPHERE = "half-sphere"


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


def _nearest_sphere_level(model: SpectrumModel, alpha: Real) -> Tuple[int, int, int, int]:
    """(k, d, p, den): |alpha - 2| = p/den, the admissible k whose level is
    nearest -gamma_alpha, and 4 den^2 times that distance as the int d;
    rho_k and rho_(k+1) bracket p/den (a tie would need (rho_k + 1)^2 + 1
    to be a square)."""
    n = model.n
    p, den = shift_ratio(alpha)
    k = max(model.k_min, (p - (n - 2) * den) // (2 * den))
    r0, r1 = (2 * k + n - 2) * den, (2 * k + n) * den
    near, far = abs(p - r0) * (p + r0), abs(p - r1) * (p + r1)
    return (k, near, p, den) if near <= far else (k + 1, far, p, den)


def _rounded(num: int, den: int, alpha: Real) -> Real:
    """num/den: exact for an int or Fraction alpha, else rounded once."""
    return Fraction(num, den) if isinstance(alpha, (int, Fraction)) else num / den


def spectral_distance(model: SpectrumModel, alpha: Real) -> Tuple[Real, int]:
    """Distance from -gamma_alpha to the spectrum, and the eigenvalue
    attaining it."""
    k, d, _, den = _nearest_sphere_level(model, alpha)
    return _rounded(d, 4 * den * den, alpha), model.sphere_eigenvalue(k)


def rellich_constant(model: SpectrumModel, alpha: Real) -> Real:
    """Best q=2 constant: squared distance of -gamma_alpha to the spectrum."""
    _, d, _, den = _nearest_sphere_level(model, alpha)
    return _rounded(d * d, 16 * den**4, alpha)


@dataclass(frozen=True)
class PositivityPredicates:
    sq_positive: bool
    break_pos: bool
    lambda1: float
    lambda2: float


def positivity_predicates(model: SpectrumModel, alpha: Real) -> PositivityPredicates:
    """Whether the best constant is positive (-gamma off the spectrum) and
    whether the positivity-breaking condition -gamma > (l1+l2)/2, that is
    (alpha-2)^2 > (n-2)^2 + 2(l1+l2), holds."""
    _, d, p, den = _nearest_sphere_level(model, alpha)
    lam1, lam2 = (model.sphere_eigenvalue(k) for k in (model.k_min, model.k_min + 1))
    return PositivityPredicates(
        sq_positive=d != 0,
        break_pos=p * p > ((model.n - 2) ** 2 + 2 * (lam1 + lam2)) * den * den,
        lambda1=float(lam1),
        lambda2=float(lam2),
    )
