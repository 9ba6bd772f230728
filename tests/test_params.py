"""Closed-form exponent arithmetic: exact rational spot checks plus
floating-point symmetry/conjugacy properties."""
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ckn.params
from ckn.errors import (ConsistencyError, ParameterDomainError,
                        SingularParameterError)
from ckn.params import (bubble_curve, bubble_energy, bubble_mass, conjugate_exponent,
                        derive_params, gamma_alpha, gbar_alpha,
                        phase_thresholds, radial_closed_forms,
                        scaling_relation, sstar)
from ckn.quadrature import sphere_area


def test_derive_params_spot_values():
    p = derive_params(5, 0.0, 3.0)
    assert p.beta == 3.5
    assert p.gamma == 1.25
    assert p.gbar == 3.25
    assert p.two_star_star == 10.0


def test_derive_params_rational_mode_exact():
    p = derive_params(5, Fraction(0), Fraction(3))
    assert p.gamma == Fraction(5, 4)
    assert p.beta == Fraction(7, 2)


def test_gamma_alpha_closed_form():
    # ((n-2)/2)^2 - ((alpha-2)/2)^2
    assert gamma_alpha(5, 0.0) == 1.25
    assert gamma_alpha(6, 2.0) == 4.0
    assert gamma_alpha(5, Fraction(4)) == Fraction(5, 4)


@given(st.integers(2, 12), st.integers(-80, 80).map(lambda k: k / 2.0))
def test_gamma_alpha_reflection_bitwise(n, alpha):
    # bitwise on dyadic alphas, where 4 - alpha is exact
    assert gamma_alpha(n, alpha) == gamma_alpha(n, 4.0 - alpha)


@given(st.integers(2, 12), st.floats(-40, 40, allow_nan=False))
def test_gamma_alpha_reflection_approx(n, alpha):
    # 4.0 - alpha rounds for generic floats, so only approximate there
    a, b = float(gamma_alpha(n, alpha)), float(gamma_alpha(n, 4.0 - alpha))
    assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


@given(st.integers(2, 12), st.floats(-40, 40, allow_nan=False))
def test_gbar_exceeds_gamma_when_positive(n, alpha):
    g, gb = float(gamma_alpha(n, alpha)), float(gbar_alpha(n, alpha))
    # gbar - gamma = ((alpha-2)^2 + something) / ... is always >= 0 here
    assert gb >= g - 1e-12 * max(1.0, abs(g))


def test_radial_closed_forms_spot():
    forms = radial_closed_forms(5, 0.0)
    assert forms.s2_rad == 1.5625
    assert forms.mu21_rad == 6.25
    assert forms.conjugate_alpha == -2.5


def test_radial_closed_forms_rational():
    forms = radial_closed_forms(5, Fraction(0))
    assert forms.s2_rad == Fraction(25, 16)
    assert forms.mu21_rad == Fraction(25, 4)


@given(st.integers(5, 12), st.floats(-30, 30, allow_nan=False))
def test_s2_is_gamma_squared(n, alpha):
    # gamma^2 at the exact value of alpha, rounded once
    g = gamma_alpha(n, Fraction(alpha))
    forms = radial_closed_forms(n, alpha)
    assert forms.s2_rad == float(g * g)
    assert forms.mu21_rad == float((n - Fraction(alpha)) ** 2 / 4)


@given(
    st.integers(3, 12),
    st.floats(-30, 30, allow_nan=False).filter(lambda a: abs(a - 2.0) > 1e-6),
)
def test_conjugate_is_involutive(n, alpha):
    at = float(conjugate_exponent(n, alpha))
    # (alpha - 2)(at - 2) = (n - 2)^2
    assert (alpha - 2.0) * (at - 2.0) == pytest.approx((n - 2) ** 2, rel=1e-12)
    back = float(conjugate_exponent(n, at))
    assert back == pytest.approx(alpha, rel=1e-9, abs=1e-9)


def test_conjugate_rejects_fixed_singularity():
    with pytest.raises((SingularParameterError, ParameterDomainError)):
        conjugate_exponent(5, 2.0)


def test_scaling_relation_tau_sign_and_product():
    rel = scaling_relation(5, 6.0, 4.25)
    # tau = (alpha - 2)/(n - 2) relates the two Emden-Fowler frames
    assert float(rel.tau) == pytest.approx((6.0 - 2.0) / 3.0, rel=1e-12)


def test_phase_thresholds_closed_form():
    thr = phase_thresholds(5, 10.0)
    expect = 4.0 * (1.0 + math.sqrt(9.0)) / 8.0
    assert thr.bs1 == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("n,alpha", [(7, 7.000000000000001), (7, -3.0000000000000004),
                                     (5, 5.000000000000001), (6, -2.0000000000000004)])
def test_radial_closed_forms_within_rounding_of_a_root(n, alpha):
    # gamma ~ 1e-15 here; s2 is its exact square, rounded once
    forms = radial_closed_forms(n, alpha)
    assert 0.0 < forms.s2_rad < 1e-25
    assert forms.s2_rad == float(gamma_alpha(n, Fraction(alpha)) ** 2)


def test_radial_closed_forms_disagreement_is_a_library_error(monkeypatch):
    monkeypatch.setattr(ckn.params, "gamma_alpha", lambda n, a: 1.0)
    with pytest.raises(ConsistencyError):
        radial_closed_forms(5, 0.0)


def test_sstar_closed_form():
    # S** at n = 5, 6 by the quadrature of the bubble quotient
    assert sstar(5) == pytest.approx(102.38327344058293, rel=1e-14)
    assert sstar(6) == pytest.approx(247.2844473661602, rel=1e-14)
    for n in (5, 6, 7, 8):
        # U attains S**: energy = S** mass^(2/2**)
        assert bubble_energy(n) / bubble_mass(n) ** ((n - 4) / n) == pytest.approx(
            sstar(n), rel=1e-15)
    # int U^(2**) at n = 6 is pi^3 Gamma(3) / Gamma(6) = pi^3 / 60
    assert bubble_mass(6) == pytest.approx(math.pi**3 / 60.0, rel=1e-15)
    with pytest.raises(ParameterDomainError):
        sstar(4)
    with pytest.raises(ParameterDomainError):
        bubble_mass(4)


@pytest.mark.parametrize("n", [5, 6, 7, 8, 12])
def test_bubble_curve_at_alpha_0_is_sstar(n):
    # at alpha = 0 the curve's dimension is n itself: kappa = 1, q* = 2**,
    # and |S^(n-1)|^(1-2/q*) mu_q is the radial Sobolev constant S**
    q, mu, kappa, N = bubble_curve(n, 0.0)
    assert (q, kappa, N) == (2.0 * n / (n - 4), 1.0, float(n))
    assert sphere_area(n) ** ((q - 2.0) / q) * mu == pytest.approx(sstar(n), rel=1e-14)


@pytest.mark.parametrize("alpha", [2.0, 5.0, -1.0, 7.0, math.nan])
def test_bubble_curve_refuses_alpha_off_the_curve(alpha):
    with pytest.raises(ParameterDomainError):
        bubble_curve(5, alpha)


@pytest.mark.parametrize("q", [math.nan, 1.0])
def test_derive_params_refuses_q_below_2_and_nan(q):
    with pytest.raises(ParameterDomainError):
        derive_params(5, 0.0, q)


def test_dimension_domain_errors():
    with pytest.raises(ParameterDomainError):
        radial_closed_forms(1, 0.0)
