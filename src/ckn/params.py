"""Closed-form scalar quantities of the weighted biharmonic problem.

Every formula here is cheap algebra; the numerical modules treat these
values as ground truth.  When all inputs are ints or Fractions the
computations stay in exact rational arithmetic, otherwise they run in
floats: each formula is written once, and Python's numeric types pick the
mode (a Fraction divided by 4 stays a Fraction).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

from .errors import (ConsistencyError, ParameterDomainError,
                     SingularParameterError)

Real = Union[int, float, Fraction]


def _coerce(*values: Real):
    """Promote ints to Fraction when every input is exact, else to float."""
    if all(isinstance(v, (int, Fraction)) for v in values):
        return tuple(Fraction(v) for v in values)
    return tuple(float(v) for v in values)


@dataclass(frozen=True)
class DerivedParams:
    """Parameter bundle (n, alpha, q) plus every derived exponent."""

    n: int
    alpha: Real
    q: Real
    beta: Real
    gamma: Real
    gbar: Real
    two_star_star: Optional[Real]


def check_alpha(alpha: Real) -> Real:
    """alpha as `_coerce` makes it; a float must be finite with alpha^4 below the float max."""
    (a,) = _coerce(alpha)
    if isinstance(a, float) and not math.isfinite(16.0 * a * a * a * a):
        raise ParameterDomainError(
            f"alpha={a!r} must be finite with alpha^4 below the float maximum")
    return a


def shift_ratio(alpha: Real) -> Tuple[int, int]:
    """The ints (p, den) with |alpha - 2| = p/den exactly (a float is a dyadic
    rational): the phase boundaries compare (alpha - 2)^2 with rationals."""
    p, den = check_alpha(alpha).as_integer_ratio()
    return abs(p - 2 * den), den


def gamma_alpha(n: int, alpha: Real) -> Real:
    a = check_alpha(alpha)
    # a product, not `** 2`: in floats the two can differ in the last bit
    return ((n - 2) ** 2 - (a - 2) * (a - 2)) / 4


def gbar_alpha(n: int, alpha: Real) -> Real:
    a = check_alpha(alpha)
    return ((n - 2) ** 2 + (a - 2) * (a - 2)) / 4


def check_exponents(n: int, q: Real = 2) -> None:
    """Refuse n < 2, and q < 2, NaN or infinite."""
    if n < 2:
        raise ParameterDomainError(f"dimension n={n} must be >= 2")
    if not q >= 2:
        raise ParameterDomainError(f"exponent q={q} must be >= 2")
    if q == math.inf:
        raise ParameterDomainError(f"exponent q={q} must be finite")


def derive_params(n: int, alpha: Real, q: Real) -> DerivedParams:
    """Populate beta, gamma, gbar and the critical exponent for (n, alpha, q)."""
    check_exponents(n, q)
    a, qq = _coerce(check_alpha(alpha), q)
    beta = n - qq * (n - 4 + a) / 2
    two_star_star: Optional[Real] = None
    if n >= 5:
        two_star_star = (
            Fraction(2 * n, n - 4) if isinstance(a, Fraction) else 2 * n / (n - 4)
        )
        if qq > two_star_star:
            warnings.warn(
                f"q={q} exceeds the critical exponent 2n/(n-4)={two_star_star}; "
                "only the radial theory applies",
                stacklevel=2,
            )
    return DerivedParams(
        n=n,
        alpha=a,
        q=qq,
        beta=beta,
        gamma=gamma_alpha(n, a),
        gbar=gbar_alpha(n, a),
        two_star_star=two_star_star,
    )


@dataclass(frozen=True)
class RadialClosedForms:
    s2_rad: Real
    mu21_rad: Real
    conjugate_alpha: Optional[Real]


def radial_closed_forms(n: int, alpha: Real) -> RadialClosedForms:
    """Best q=2 radial constant, the second-order/first-order ratio, and the
    conjugate exponent of alpha: computed exactly, and rounded once for a
    float alpha."""
    check_exponents(n)
    a = check_alpha(alpha)
    x = Fraction(a)
    g = gamma_alpha(n, x)
    s2 = g * g
    # the same value as a product of linear factors; cross-check
    alt = (n - 4 + x) ** 2 * (n - x) ** 2 / 16
    if s2 != alt:
        raise ConsistencyError(
            f"s2_rad routes disagree at n={n}, alpha={alpha}: {s2} != {alt}"
        )
    mu21 = ((n - x) / 2) ** 2
    conj = conjugate_exponent(n, x) if n >= 3 and x != 2 else None
    rnd = type(a)
    return RadialClosedForms(s2_rad=rnd(s2), mu21_rad=rnd(mu21),
                             conjugate_alpha=None if conj is None else rnd(conj))


def conjugate_exponent(n: int, alpha: Real) -> Real:
    """Solve (alpha - 2)(x - 2) = (n - 2)^2 for x."""
    if alpha == 2:
        raise ParameterDomainError("alpha = 2 has no finite conjugate exponent")
    (a,) = _coerce(alpha)
    return 2 + (n - 2) ** 2 / (a - 2)


def bubble_curve(n: int, alpha: float) -> Tuple[float, float, float, float]:
    """(q*, mu_q, kappa, N) on the bubble curve, for 0 < |alpha - 2| < n - 2:
    the line problem at alpha is the one at alpha = 0 in the real dimension
    N = 2 + 2(n-2)/|alpha-2|, rescaled in t by kappa = |alpha-2|/2, so at
    q* = 2N/(N-4) its minimizer is cosh(kappa t)^(-(N-4)/2) and mu_q has a
    closed form."""
    d = abs(float(check_alpha(alpha)) - 2.0)
    if not 0.0 < d < n - 2:
        raise ParameterDomainError(
            f"the bubble curve needs 0 < |alpha - 2| < n - 2, got n={n}, alpha={alpha}")
    N = 2.0 + 2.0 * (n - 2) / d
    kappa = d / 2.0
    q = 2.0 * N / (N - 4.0)
    # sqrt(pi) Gamma(N/2) / Gamma((N+1)/2)
    ratio = math.exp(0.5 * math.log(math.pi) + math.lgamma(N / 2.0)
                     - math.lgamma((N + 1.0) / 2.0))
    mu = (kappa ** (3.0 + 2.0 / q) * N * (N + 2.0) * (N - 2.0) * (N - 4.0) / 16.0
          * ratio ** (4.0 / N))
    return q, mu, kappa, N


@dataclass(frozen=True)
class ScalingRelation:
    tau: Real
    g: Real


def scaling_relation(n: int, alpha: Real, alpha_tilde: Real) -> ScalingRelation:
    """Rescaling exponent tau and gradient-term coefficient g linking the two
    weight exponents alpha, alpha_tilde."""
    if alpha == 4 - n or alpha_tilde == 4 - n:
        raise SingularParameterError(
            f"exponents must differ from 4-n={4 - n}: got {alpha}, {alpha_tilde}"
        )
    a, at = _coerce(alpha, alpha_tilde)
    tau = (n - 4 + a) / (n - 4 + at)
    bracket = at * a - 2 * (at + a) - n * (n - 4)
    g = (n - 2) * (at - a) * bracket / (n - 4 + a) ** 2
    return ScalingRelation(tau=tau, g=g)


@dataclass(frozen=True)
class PhaseThresholds:
    bs1: Optional[float]
    strictness_upper: Optional[float]


def phase_thresholds(n: int, q: Optional[Real] = None) -> PhaseThresholds:
    """Closed-form thresholds for symmetry breaking and critical-exponent
    strictness."""
    check_exponents(n)
    bs1 = None
    if q is not None:
        if not q > 2:
            raise ParameterDomainError("the symmetry-breaking threshold needs q > 2")
        check_exponents(n, q)
        q = float(q)
        bs1 = (n - 1) / (q - 2) * (1.0 + math.sqrt(q - 1.0))
    strictness_upper = None
    if n >= 5:
        strictness_upper = math.sqrt(4.0 + 2.0 * (n - 2) ** 2 * (n - 4) / (n - 3))
    return PhaseThresholds(bs1=bs1, strictness_upper=strictness_upper)


# ---------------------------------------------------------------------------
# Talenti bubble U(x) = (1 + |x|^2)^((4-n)/2) on R^n


def require_n5(n: int) -> None:
    """Reject n < 5, where the critical exponent 2n/(n-4) is not finite."""
    if n < 5:
        raise ParameterDomainError(f"need n >= 5, got n={n}")


def sstar(n: int) -> float:
    """Biharmonic Sobolev constant
    S** = pi^2 n (n-4) (n^2-4) (Gamma(n/2)/Gamma(n))^(4/n),
    attained by U (Swanson 1992; Edmunds-Fortunato-Jannelli 1990)."""
    require_n5(n)
    ratio = math.exp((4.0 / n) * (math.lgamma(0.5 * n) - math.lgamma(float(n))))
    return math.pi ** 2 * n * (n - 4) * (n * n - 4) * ratio


def bubble_mass(n: int) -> float:
    """int U^(2**) = pi^(n/2) Gamma(n/2) / Gamma(n)."""
    require_n5(n)
    return math.exp(0.5 * n * math.log(math.pi) + math.lgamma(0.5 * n)
                    - math.lgamma(float(n)))


def bubble_energy(n: int) -> float:
    """int |Delta U|^2 = S** (int U^(2**))^(2/2**), since U attains S**."""
    return sstar(n) * bubble_mass(n) ** ((n - 4) / n)
