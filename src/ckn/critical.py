"""Critical-exponent machinery built around the Talenti bubble
U(x) = (1 + |x|^2)^((4-n)/2).

Contents: quadrature verification of the radial integral identities behind
the strictness expansion

    int |x|^(-2a) |Delta(|x|^a U)|^2 = int |Delta U|^2 + c(n, a) I,
    c(n, a) = a(a+2) [a^2 + 2a - (n-2)^2 (n-4) / (2(n-3))],

the sign predicate c(n, -alpha/2) < 0 with its interval form, the
shifted-weight inequality f(t) <= f(0) - C_a t^2 int |grad u|^2 for
compactly supported radial u, and the concentration family
u_eps = eps^((4-n)/2) chi U(./eps)."""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (ConsistencyError, IntegrandError, ParameterDomainError,
                     SupportViolationError, SupportWarning)
from .grids import RadialProfile
from .params import (Real, bubble_energy, bubble_mass, check_alpha,
                     phase_thresholds, require_n5, shift_ratio, sstar)
from .quadrature import (GRADING_LEVELS, gauss_panels, sphere_area,
                         weighted_radial_integral)

# ---------------------------------------------------------------------------
# Talenti bubble and its analytic derivatives


def talenti(r: np.ndarray, n: int) -> np.ndarray:
    return np.power(1.0 + r**2, 0.5 * (4 - n))


def talenti_d1(r: np.ndarray, n: int) -> np.ndarray:
    return (4 - n) * r * np.power(1.0 + r**2, 0.5 * (2 - n))


def talenti_d2(r: np.ndarray, n: int) -> np.ndarray:
    phi = 1.0 + r**2
    return (4 - n) * np.power(phi, 0.5 * (2 - n)) + (4 - n) * (2 - n) * r**2 * np.power(
        phi, -0.5 * n
    )


def talenti_laplacian(r: np.ndarray, n: int) -> np.ndarray:
    return talenti_d2(r, n) + (n - 1) / r * talenti_d1(r, n)


def expansion_coefficient(n: int, a: Real) -> Real:
    """c(n, a) = a(a+2)[a^2 + 2a - (n-2)^2 (n-4)/(2(n-3))]; exact for a
    Fraction a, in floats for a float a."""
    bracket = Fraction((n - 2) ** 2 * (n - 4), 2 * (n - 3))
    return a * (a + 2) * (a**2 + 2 * a - bracket)


@dataclass(frozen=True)
class TalentiReport:
    n: int
    I: float
    J: float
    ratio_relerr: float
    sstar_num: float
    expansion_relerrs: Dict[float, float]
    coefficients: Dict[float, float]
    identity_relerrs: Dict[str, float]

    @property
    def worst_relerr(self) -> float:
        return max([self.ratio_relerr, *self.expansion_relerrs.values(),
                    *self.identity_relerrs.values()])


def _relerr(lhs: float, rhs: float) -> float:
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return abs(lhs - rhs) / scale


def talenti_identity_suite(
    n: int,
    a_values: Sequence[float],
    doubled: bool = False,
) -> TalentiReport:
    """Verify the radial identities on U by independent quadrature.

    All left-hand sides are assembled from the analytic derivatives of U,
    never from finite differences, so the recorded relative errors measure
    only the quadrature.  `sstar_num` is the closed form; its quadrature
    value is kept as the check identity_relerrs["sstar"].  Each a must be
    finite with a^4 below the float maximum, and its expansion integrand
    finite; with no a, only the identities are checked.  `doubled` takes
    the finer quadrature rule."""
    require_n5(n)
    a_values = [float(a) for a in a_values]
    for a in a_values:
        if not math.isfinite(a * a * a * a):
            raise ParameterDomainError(
                f"a={a!r} must be finite with a^4 below the float maximum")

    U = lambda r: talenti(r, n)
    Up = lambda r: talenti_d1(r, n)
    lap = lambda r: talenti_laplacian(r, n)
    quad = lambda g, p: weighted_radial_integral(g, n, p, doubled=doubled)

    I = quad(lambda r: U(r) ** 2, -4.0)
    J = quad(lambda r: Up(r) ** 2, -2.0)
    ratio = (n - 2) * (n - 4) ** 2 / (4.0 * (n - 3))
    ratio_relerr = _relerr(J / I, ratio)

    identity_relerrs = {
        # int |x|^-4 U (x . grad U) = -(n-4)/2 I
        "radial-1": _relerr(
            quad(lambda r: U(r) * r * Up(r), -4.0),
            -0.5 * (n - 4) * I,
        ),
        # int |x|^-2 (x . grad U) Delta U = (n/2) J
        "radial-2": _relerr(
            quad(lambda r: r * Up(r) * lap(r), -2.0),
            0.5 * n * J,
        ),
        # int |x|^-2 U Delta U = -J - (n-4) I
        "radial-3": _relerr(
            quad(lambda r: U(r) * lap(r), -2.0),
            -J - (n - 4) * I,
        ),
    }

    energy = quad(lambda r: lap(r) ** 2, 0.0)
    two_ss = 2.0 * n / (n - 4)
    mass = quad(lambda r: U(r) ** two_ss, 0.0)
    sstar_num = sstar(n)
    identity_relerrs["sstar"] = _relerr(energy / mass ** (2.0 / two_ss), sstar_num)

    expansion_relerrs: Dict[float, float] = {}
    coefficients: Dict[float, float] = {}
    for a in a_values:
        c = expansion_coefficient(n, a)
        coefficients[a] = c

        def modified(r: np.ndarray, a: float = a) -> np.ndarray:
            # |x|^-a Delta(|x|^a U), so the weight cancels in the square
            return (lap(r) + (2.0 * a * Up(r) / r) + a * (n - 2 + a) * U(r) / r**2) ** 2

        try:
            with np.errstate(over="ignore", invalid="ignore"):
                lhs = quad(modified, 0.0)
        except IntegrandError as exc:
            raise ParameterDomainError(
                f"a={a!r}: the expansion integrand overflows ({exc})") from exc
        expansion_relerrs[a] = _relerr(lhs, energy + c * I)

    return TalentiReport(
        n=n,
        I=I,
        J=J,
        ratio_relerr=ratio_relerr,
        sstar_num=sstar_num,
        expansion_relerrs=expansion_relerrs,
        coefficients=coefficients,
        identity_relerrs=identity_relerrs,
    )


# ---------------------------------------------------------------------------
# Strictness predicate


def strictness_sign_check(n: int, alpha: float) -> dict:
    """Sign of c(n, -alpha/2), cross-checked against the interval form.

    With x = a^2 + 2a = ((alpha-2)^2 - 4)/4 and j the bracket constant,
    c = x (x - j); hence c < 0 iff 2 < |alpha - 2| < sqrt(4 + 4j).  Both
    routes are exact: c at the exact value of alpha (reported rounded once),
    and the interval as (n-3) (alpha-2)^2 against 4(n-3) and
    4(n-3) + 2(n-2)^2(n-4) in integers."""
    require_n5(n)
    p, den = shift_ratio(alpha)
    c = expansion_coefficient(n, Fraction(check_alpha(alpha)) / -2)
    lo = 4 * (n - 3)
    hi = lo + 2 * (n - 2) ** 2 * (n - 4)
    predicate = lo * den * den < (n - 3) * p * p < hi * den * den
    if (c < 0) != predicate:
        raise ConsistencyError(f"sign route c={c} disagrees with interval route "
                               f"at n={n}, alpha={alpha}")
    return {"predicate": predicate, "coefficient": float(c),
            "interval": (2.0, phase_thresholds(n).strictness_upper)}


# ---------------------------------------------------------------------------
# Shifted-weight inequality


@dataclass(frozen=True)
class ShiftedWeightReport:
    n: int
    a: float
    C_a: float
    e: Tuple[float, ...]
    t_values: List[float]
    f_values: List[float]
    inequality_ok: bool
    fitted_t2_coeff: float
    fitted_t1_coeff: float
    f0: float
    grad_sq: float


def _ball_bump(r: np.ndarray):
    """(1 - r^2)^3 and its first two derivatives at r."""
    c = 1.0 - r**2
    return c**3, -6.0 * r * c**2, -6.0 * c**2 + 24.0 * r**2 * c


def _profile_splines(u: RadialProfile):
    """The map from r to the value and first two derivatives at r of the
    profile's not-a-knot spline (quintic from 6 nodes, cubic on 4 or 5)."""
    from .splines import not_a_knot

    spl = not_a_knot(u.nodes, u.values, 5 if u.nodes.size >= 6 else 3)
    s1 = spl.derivative()
    s2 = s1.derivative()
    return lambda r: (spl(r), s1(r), s2(r))


def _check_ball_support(u: RadialProfile) -> float:
    r = np.asarray(u.nodes, dtype=float)
    v = np.asarray(u.values, dtype=float)
    if r[-1] > 1.0 + 1e-12:
        raise SupportViolationError(f"profile extends to r={r[-1]} > 1")
    peak = float(np.max(np.abs(v)))
    if abs(float(v[-1])) > 1e-9 * max(peak, 1e-300):
        raise SupportViolationError(
            "profile does not vanish at the boundary of the unit ball"
        )
    near = np.abs(v[r > 0.99 * r[-1]])
    if near.size and float(np.max(near)) > 1e-4 * max(peak, 1e-300):
        raise SupportViolationError(
            "profile does not decay near the boundary of the unit ball"
        )
    return float(r[-1])


def shifted_weight_lemma_check(
    n: int,
    a: float,
    u: Optional[RadialProfile],
    t_values: Sequence[float],
) -> ShiftedWeightReport:
    """Evaluate f(t) = int |tx+e|^(-2a) |Delta(|tx+e|^a u)|^2 on the ball.

    u = None is the bump (1 - r^2)^3 on the unit ball, with its exact
    derivatives; a given profile is read through its not-a-knot spline.
    The weight never vanishes for t <= 1/4, so a tensor Gauss rule in
    (r, theta) with measure omega_(n-1) r^(n-1) sin^(n-2)(theta) suffices;
    f(0) and int |grad u|^2 come from its radial part.  The canonical axis
    e is the first coordinate direction; by rotational invariance of the
    radial profile the choice is immaterial."""
    if u is None:
        r_max, profile = 1.0, _ball_bump
    else:
        if not isinstance(u, RadialProfile):
            raise ParameterDomainError(f"need a radial profile, got a {type(u).__name__}")
        if u.n != n:
            raise ParameterDomainError(f"profile dimension {u.n} != {n}")
        r_max, profile = _check_ball_support(u), _profile_splines(u)
    a = float(a)
    if not math.isfinite(a):
        raise ParameterDomainError(f"a={a!r} must be finite")
    t_values = [float(t) for t in t_values]
    if not all(0.0 <= t <= 0.25 for t in t_values):
        raise ParameterDomainError("t values must lie in [0, 1/4]")
    if len({t for t in t_values if t > 0.0}) < 2:
        raise ParameterDomainError(
            "the t, t^2 fit needs at least two distinct t values > 0")

    c_a = a * (a + 2.0) * (n - 2) / float(n)
    omega_sec = sphere_area(n - 1)

    # 48 radial and 24 angular panels of 12 Gauss nodes each
    r, wr = gauss_panels(np.linspace(0.0, r_max, 49), 12)
    th, wth = gauss_panels(np.linspace(0.0, math.pi, 25), 12)
    cos_th = np.cos(th)
    # measure factors, split by coordinate
    mr = wr * r ** (n - 1)
    mth = wth * np.sin(th) ** (n - 2)

    u_vals, ur, urr = profile(r)
    lap_u = urr + (n - 1) / r * ur

    R = r[:, None]
    UR = ur[:, None]
    LAP = lap_u[:, None]
    UV = u_vals[:, None]
    C = cos_th[None, :]

    f_values: List[float] = []
    for t in t_values:
        W = 1.0 + 2.0 * t * R * C + (t * R) ** 2
        with np.errstate(over="ignore", invalid="ignore"):
            integrand = (LAP + (2.0 * a * t * UR * (t * R + C)
                                + a * (n - 2 + a) * t**2 * UV) / W) ** 2
            f_values.append(float(omega_sec * mr @ integrand @ mth))
    if not all(math.isfinite(f) for f in f_values):
        raise ParameterDomainError(f"a={a!r}: the integrand of f(t) overflows")

    # at t = 0 the weight is 1 and the integrands are radial
    omega = sphere_area(n)
    f0 = float(omega * mr @ lap_u**2)
    grad_sq = float(omega * mr @ ur**2)

    ts = np.array(t_values)
    df = np.array(f_values) - f0
    nonzero = ts > 0.0
    design = np.stack([ts[nonzero], ts[nonzero] ** 2], axis=1)
    coef, *_ = np.linalg.lstsq(design, df[nonzero], rcond=None)
    lin, quad = float(coef[0]), float(coef[1])

    if c_a > 0.0:
        inequality_ok = all(
            fv <= f0 - c_a * t**2 * grad_sq + 1e-12 * f0
            for t, fv in zip(t_values, f_values)
            if t > 0.0
        )
    else:
        inequality_ok = False

    e = tuple([1.0] + [0.0] * (n - 1))
    return ShiftedWeightReport(
        n=n,
        a=a,
        C_a=c_a,
        e=e,
        t_values=t_values,
        f_values=f_values,
        inequality_ok=inequality_ok,
        fitted_t2_coeff=quad,
        fitted_t1_coeff=lin,
        f0=f0,
        grad_sq=grad_sq,
    )


# ---------------------------------------------------------------------------
# Concentration family


def smoothstep_cutoff(r: np.ndarray) -> np.ndarray:
    """Quintic smoothstep: 1 for r <= 1/2, 0 for r >= 3/4."""
    s = np.clip((np.asarray(r, dtype=float) - 0.5) / 0.25, 0.0, 1.0)
    return 1.0 - s**3 * (10.0 - 15.0 * s + 6.0 * s**2)


def _smoothstep_derivs(r: np.ndarray):
    """First and second derivatives of `smoothstep_cutoff`."""
    s = (np.asarray(r, dtype=float) - 0.5) / 0.25
    inside = (s > 0.0) & (s < 1.0)
    d1, d2 = np.zeros_like(s), np.zeros_like(s)
    ss = s[inside]
    d1[inside] = -(30.0 * ss**2 - 60.0 * ss**3 + 30.0 * ss**4) / 0.25
    d2[inside] = -(60.0 * ss - 180.0 * ss**2 + 120.0 * ss**3) / 0.25**2
    return d1, d2


@dataclass(frozen=True)
class UepsReport:
    n: int
    lam: float
    epsilons: List[float]
    ratios: List[float]
    slope_biharmonic: float
    below_sstar: bool
    cutoff: str = "quintic-smoothstep[1/2,3/4]"
    sstar_num: float = float("nan")
    biharmonic_excess: List[float] = field(default_factory=list)
    mass_deficits: List[float] = field(default_factory=list)


def _ueps_derivs(n: int, eps: float, r: np.ndarray):
    scale = eps ** (0.5 * (4 - n))
    chi, (chi1, chi2) = smoothstep_cutoff(r), _smoothstep_derivs(r)
    s = r / eps
    U, U1, U2 = talenti(s, n), talenti_d1(s, n) / eps, talenti_d2(s, n) / eps**2
    v1 = scale * (chi1 * U + chi * U1)
    v2 = scale * (chi2 * U + 2.0 * chi1 * U1 + chi * U2)
    return v1, v2


# the graded quadrature resolves u_eps while its core r < eps spans ten of
# the panels 2^-k/2 on [0, 1/2]; at eps = 1e-26 the core lies inside the
# innermost panel and R(eps) reads 25% below S** at n = 6
EPS_MIN = 2.0 ** (10 - GRADING_LEVELS)


def ueps_family(n: int, lam: float, epsilons: Sequence[float]) -> UepsReport:
    """Rayleigh quotients R(eps) of the truncated bubbles on the unit ball.

    R(eps) = (int |Delta u_eps|^2 - lambda int |grad u_eps|^2)
             / (int u_eps^(2**))^(2/2**)."""
    require_n5(n)
    epsilons = [float(e) for e in epsilons]
    if not epsilons:
        raise ParameterDomainError("the list of epsilon values is empty")
    if any(not 0.0 < e <= 0.25 for e in epsilons):
        raise ParameterDomainError("epsilon values must lie in (0, 1/4]")
    if min(epsilons) < EPS_MIN:
        raise ParameterDomainError(
            f"epsilon={min(epsilons)!r} is below {EPS_MIN:.3g}, which the "
            "quadrature does not resolve")
    if not math.isfinite(lam):
        raise ParameterDomainError(f"lambda={lam!r} must be finite")
    if any(b >= a for a, b in zip(epsilons[:-1], epsilons[1:])):
        raise ParameterDomainError("epsilon values must be strictly decreasing")
    if lam <= 0.0:
        warnings.warn(
            "lambda <= 0: the quotient cannot dip below the unweighted "
            "critical constant",
            SupportWarning,
        )

    two_ss = 2.0 * n / (n - 4)
    energy_U, mass_U, sstar_num = bubble_energy(n), bubble_mass(n), sstar(n)

    ratios: List[float] = []
    excess: List[float] = []
    deficits: List[float] = []

    def integral(g, *domains) -> float:
        return sum(weighted_radial_integral(g, n, 0.0, domain=d) for d in domains)

    for eps in epsilons:
        def lap_sq(r: np.ndarray, eps: float = eps) -> np.ndarray:
            v1, v2 = _ueps_derivs(n, eps, r)
            return (v2 + (n - 1) / r * v1) ** 2

        def grad_sq(r: np.ndarray, eps: float = eps) -> np.ndarray:
            v1, _ = _ueps_derivs(n, eps, r)
            return v1**2

        def bubble_density(r: np.ndarray, eps: float = eps) -> np.ndarray:
            # U_eps^(2**) without the cutoff
            return (eps ** (0.5 * (4 - n)) * talenti(r / eps, n)) ** two_ss

        def cut_density(r: np.ndarray) -> np.ndarray:
            return bubble_density(r) * (1.0 - smoothstep_cutoff(r) ** two_ss)

        # the cutoff is only C^2 at r = 1/2, so |Delta u_eps|^2 has a corner
        # there: integrate on each side of it
        num = integral(lap_sq, (0.0, 0.5), (0.5, 0.75))
        grd = integral(grad_sq, (0.0, 0.5), (0.5, 0.75))
        # int U_eps^(2**) - int u_eps^(2**), integrated itself so that a
        # small deficit keeps its digits
        deficit = (integral(cut_density, (0.5, 0.75))
                   + integral(bubble_density, (0.75, math.inf)))
        ratios.append((num - lam * grd) / (mass_U - deficit) ** (2.0 / two_ss))
        excess.append(num - energy_U)
        deficits.append(deficit)

    if len(epsilons) >= 2:
        slope = float(
            np.polyfit(np.log(epsilons), np.log(np.abs(excess)), 1)[0]
        )
    else:
        slope = float("nan")

    return UepsReport(
        n=n,
        lam=float(lam),
        epsilons=epsilons,
        ratios=ratios,
        slope_biharmonic=slope,
        below_sstar=bool(min(ratios) < sstar_num),
        sstar_num=sstar_num,
        biharmonic_excess=excess,
        mass_deficits=deficits,
    )
