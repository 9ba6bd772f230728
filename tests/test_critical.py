"""Bubble identities, the strictness sign test, the shifted-weight
comparison, and the concentrating family."""
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import beta as beta_fn

import ckn.critical
from ckn.critical import (strictness_sign_check, expansion_coefficient,
                          shifted_weight_lemma_check, smoothstep_cutoff,
                          talenti, talenti_identity_suite, talenti_laplacian,
                          ueps_family)
from ckn.errors import (ConsistencyError, ParameterDomainError,
                        SupportViolationError, SupportWarning)
from ckn.params import sstar
from ckn.grids import RadialProfile
from ckn.quadrature import sphere_area, weighted_radial_integral


# ---------------------------------------------------------------------------
# bubble moments


def bubble_moment(n, p, nu):
    mu = n + p
    return sphere_area(n) * 0.5 * beta_fn(0.5 * mu, nu - 0.5 * mu)


def test_n5_moments_closed_form():
    # I = int |x|^-4 U^2 = 4 pi^3 / 3, J = int |x|^-2 |grad U|^2 = pi^3 / 2
    rep = talenti_identity_suite(5, (1.0,))
    assert rep.I == pytest.approx(4.0 * math.pi**3 / 3.0, rel=5e-15)
    assert rep.J == pytest.approx(math.pi**3 / 2.0, rel=5e-15)
    # and both agree with the Beta-function oracle
    assert rep.I == pytest.approx(bubble_moment(5, -4.0, 1.0), rel=1e-13)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_ratio_identity_all_dimensions(n):
    rep = talenti_identity_suite(n, (-3.0, -2.5, 1.0, 2.0))
    assert rep.ratio_relerr <= 1e-6
    assert all(v <= 1e-6 for v in rep.identity_relerrs.values())
    assert all(v <= 1e-6 for v in rep.expansion_relerrs.values())


def test_doubled_panels_reach_1e8():
    rep = talenti_identity_suite(6, (-3.0, 2.0), doubled=True)
    worst = max([rep.ratio_relerr] + list(rep.expansion_relerrs.values())
                + list(rep.identity_relerrs.values()))
    assert worst <= 1e-8


def test_sstar_frozen_values():
    assert talenti_identity_suite(5, (1.0,)).sstar_num == pytest.approx(
        102.38327344058288, rel=1e-10
    )
    assert talenti_identity_suite(6, (1.0,)).sstar_num == pytest.approx(
        247.2844473661603, rel=1e-10
    )


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_closed_form_sstar_matches_quadrature(n):
    rep = talenti_identity_suite(n, ())
    assert rep.sstar_num == sstar(n)
    assert rep.identity_relerrs["sstar"] <= 1e-12
    assert rep.worst_relerr == max([rep.ratio_relerr, *rep.identity_relerrs.values()])


def test_expansion_coefficient_closed_form():
    # c(n, a) = a(a+2)[a^2 + 2a - (n-2)^2 (n-4) / (2(n-3))]
    for n, a in ((5, -3.0), (6, 1.0), (7, -2.5)):
        x = a * (a + 2.0)
        j = (n - 2) ** 2 * (n - 4) / (2.0 * (n - 3))
        assert expansion_coefficient(n, a) == pytest.approx(x * (x - j), rel=1e-12)


# ---------------------------------------------------------------------------
# sign test


def test_strictness_interval_endpoint_sqrt13():
    rep = strictness_sign_check(5, 5.0)
    assert rep["interval"][1] == math.sqrt(13.0)  # exact float arithmetic
    assert rep["predicate"]


def test_strictness_route_disagreement_is_a_library_error(monkeypatch):
    # a sign route that reads c > 0 everywhere
    monkeypatch.setattr(ckn.critical, "expansion_coefficient", lambda n, a: Fraction(1))
    with pytest.raises(ConsistencyError):
        strictness_sign_check(5, 5.0)  # |alpha-2| = 3 is inside (2, sqrt 13)


def test_strictness_outside_interval():
    rep = strictness_sign_check(6, -3.1)
    assert not rep["predicate"]
    assert rep["coefficient"] > 0.0


def test_strictness_requires_n5():
    with pytest.raises(ParameterDomainError):
        strictness_sign_check(4, 5.0)


@given(st.integers(5, 12), st.floats(-30.0, 34.0, allow_nan=False))
@settings(max_examples=1000, deadline=None)
def test_strictness_dual_routes_agree(n, alpha):
    """strictness_sign_check raises internally if the sign of c(n, -alpha/2)
    disagrees with the interval characterization; sampling widely is the
    proof burden here.  The predicate is exact in alpha: 2 < |alpha - 2|
    holds for alpha = -1e-194, where the float alpha - 2 rounds to -2."""
    rep = strictness_sign_check(n, alpha)
    lo, hi = rep["interval"]
    assert lo == 2.0 and hi > lo
    upper2 = 4 + Fraction(2 * (n - 2) ** 2 * (n - 4), n - 3)
    assert rep["predicate"] == (4 < (Fraction(alpha) - 2) ** 2 < upper2)


# ---------------------------------------------------------------------------
# shifted weight


def ball_bump(n=6, N=2001):
    r = np.linspace(0.0, 1.0, N)
    return RadialProfile(nodes=r, values=(1.0 - r**2) ** 3, n=n)


def f0_oracle(n):
    """f(0) = int |Delta u|^2 for u = (1-r^2)^3: at t = 0 the shifted weight
    |t x + e| is identically 1, so only the plain biharmonic energy remains."""
    def integrand(r):
        du_over_r = -6.0 * (1.0 - r**2) ** 2
        d2u = -6.0 * (1.0 - r**2) ** 2 + 24.0 * r**2 * (1.0 - r**2)
        return (d2u + (n - 1) * du_over_r) ** 2

    return weighted_radial_integral(integrand, n, 0.0, domain=(0.0, 1.0))


@pytest.mark.parametrize("n", [5, 6, 7])
def test_shifted_weight_f0_against_oracle(n):
    # f(0) comes from the radial part of the rule that gives f(t)
    rep = shifted_weight_lemma_check(n, -3.0, ball_bump(n), t_values=(0.02, 0.05))
    assert rep.f0 == pytest.approx(f0_oracle(n), rel=1e-11)


def test_shifted_weight_center_value_against_oracle():
    rep = shifted_weight_lemma_check(6, -3.0, ball_bump(), t_values=(0.02, 0.05))
    assert rep.C_a == 2.0
    # int |grad u|^2 = omega_6 int r^5 (6 r (1-r^2)^2)^2 dr
    grad_oracle = weighted_radial_integral(
        lambda r: 36.0 * r**2 * (1.0 - r**2) ** 4, 6, 0.0, domain=(0.0, 1.0)
    )
    assert rep.grad_sq == pytest.approx(grad_oracle, rel=1e-10)


def test_shifted_weight_inequality_and_cancellation():
    rep = shifted_weight_lemma_check(
        6, -3.0, ball_bump(), t_values=(0.02, 0.04, 0.06, 0.08, 0.10)
    )
    assert rep.inequality_ok
    # fitted first-order coefficient must cancel
    assert abs(rep.fitted_t1_coeff) <= 1e-3 * rep.f0
    # fitted quadratic loss is at least C_a * |grad u|_2^2
    assert rep.fitted_t2_coeff <= -rep.C_a * rep.grad_sq * (1.0 - 1e-6)


@pytest.mark.parametrize("n, a", [(5, 1.0), (6, -3.0), (7, -3.0)])
def test_shifted_weight_default_bump_matches_its_sampled_profile(n, a):
    # u = None is the bump with exact derivatives; the samples go through
    # their quintic spline
    t_values = (0.02, 0.04, 0.06, 0.08, 0.10)
    exact = shifted_weight_lemma_check(n, a, None, t_values)
    sampled = shifted_weight_lemma_check(n, a, ball_bump(n), t_values)
    assert exact.f_values == pytest.approx(sampled.f_values, rel=1e-10)
    assert exact.f0 == pytest.approx(sampled.f0, rel=1e-10)
    assert exact.grad_sq == pytest.approx(sampled.grad_sq, rel=1e-10)
    assert exact.inequality_ok == sampled.inequality_ok


@pytest.mark.parametrize("a", [math.nan, math.inf])
def test_shifted_weight_refuses_a_non_finite_a(a):
    with pytest.raises(ParameterDomainError):
        shifted_weight_lemma_check(6, a, ball_bump(), t_values=(0.02, 0.05))


def test_shifted_weight_rejects_boundary_supported_profile():
    r = np.linspace(0.0, 1.0, 501)
    bad = RadialProfile(nodes=r, values=1.0 - r**2 + 0.5, n=6)
    with pytest.raises(SupportViolationError):
        shifted_weight_lemma_check(6, -3.0, bad, t_values=(0.05,))


# ---------------------------------------------------------------------------
# concentrating family


def test_smoothstep_plateau_and_support():
    r = np.array([0.0, 0.3, 0.5, 0.625, 0.75, 0.9])
    chi = smoothstep_cutoff(r)
    assert chi[0] == 1.0 and chi[2] == 1.0
    assert chi[4] == 0.0 and chi[5] == 0.0
    assert 0.0 < chi[3] < 1.0
    fine = smoothstep_cutoff(np.linspace(0.5, 0.75, 200))
    assert np.all(np.diff(fine) <= 1e-12)


def test_ueps_parameter_domain():
    with pytest.raises(ParameterDomainError):
        ueps_family(7, 0.0, (0.3, 0.1))  # eps > 1/4
    with pytest.raises(ParameterDomainError):
        ueps_family(7, 0.0, (0.1, 0.2))  # not strictly decreasing
    with pytest.raises(ParameterDomainError):
        ueps_family(7, 0.0, (0.2, math.nan))
    with pytest.raises(ParameterDomainError):
        ueps_family(7, math.nan, (0.2, 0.1))


def test_ueps_ratios_approach_sstar_from_above():
    with pytest.warns(SupportWarning):
        rep = ueps_family(7, 0.0, (0.2, 0.1, 0.05, 0.025))
    assert rep.ratios == sorted(rep.ratios, reverse=True)
    assert rep.ratios[-1] >= rep.sstar_num * (1.0 - 5e-3)
    assert all(d >= 0.0 for d in rep.mass_deficits)


def test_ueps_negative_lambda_warns():
    with pytest.warns(SupportWarning):
        ueps_family(6, -1.0, (0.1, 0.05))


def _ueps_mpmath(n, eps):
    """biharmonic excess and mass deficit of u_eps by mpmath at 30 digits,
    with the quadrature split at the cutoff's ends."""
    import mpmath as mp

    with mp.workdps(30):
        k, e = mp.mpf(4 - n) / 2, mp.mpf(eps)
        two_ss = mp.mpf(2 * n) / (n - 4)
        U = lambda s: (1 + s**2) ** k
        U1 = lambda s: 2 * k * s * (1 + s**2) ** (k - 1)
        U2 = lambda s: (2 * k * (1 + s**2) ** (k - 1)
                        + 4 * k * (k - 1) * s**2 * (1 + s**2) ** (k - 2))

        def chi(r):
            if r <= 0.5:
                return 1, 0, 0
            if r >= 0.75:
                return 0, 0, 0
            s = 4 * (r - mp.mpf(1) / 2)
            return (1 - s**3 * (10 - 15 * s + 6 * s**2),
                    -4 * (30 * s**2 - 60 * s**3 + 30 * s**4),
                    -16 * (60 * s - 180 * s**2 + 120 * s**3))

        def lap_sq(r):
            x0, x1, x2 = chi(r)
            s = r / e
            v1 = e**k * (x1 * U(s) + x0 * U1(s) / e)
            v2 = e**k * (x2 * U(s) + 2 * x1 * U1(s) / e + x0 * U2(s) / e**2)
            return (v2 + (n - 1) / r * v1) ** 2 * r ** (n - 1)

        density = lambda r: (e**k * U(r / e)) ** two_ss * r ** (n - 1)
        omega = 2 * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2)
        g = mp.gamma(mp.mpf(n) / 2) / mp.gamma(n)
        mass = mp.pi ** (mp.mpf(n) / 2) * g
        energy = (mp.pi**2 * n * (n - 4) * (n**2 - 4) * g ** (mp.mpf(4) / n)
                  * mass ** (mp.mpf(n - 4) / n))
        excess = omega * mp.quad(lap_sq, [0, e, 0.5, 0.75]) - energy
        deficit = omega * (
            mp.quad(lambda r: density(r) * (1 - abs(chi(r)[0]) ** two_ss), [0.5, 0.75])
            + mp.quad(density, [0.75, 1.5, mp.inf]))
        return float(excess), float(deficit)


@pytest.mark.parametrize("n,eps", [(5, 0.2), (6, 0.1), (7, 0.05)])
def test_ueps_matches_mpmath_across_the_cutoff(n, eps):
    """The cutoff is only C^2 at r = 1/2; a Gauss panel across that corner
    errs by about 1e-3 relative in both fields."""
    excess, deficit = _ueps_mpmath(n, eps)
    rep = ueps_family(n, 1.0, (eps,))
    assert rep.biharmonic_excess[0] == pytest.approx(excess, rel=1e-10)
    assert rep.mass_deficits[0] == pytest.approx(deficit, rel=1e-12)
