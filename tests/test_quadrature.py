"""Weighted radial quadrature against independent closed forms.

The main oracle is the Beta-function identity

    int_0^inf r^(mu-1) (1 + r^2)^(-nu) dr = B(mu/2, nu - mu/2) / 2,

valid for 0 < mu < 2 nu, which covers every power-law-times-bubble moment
the rest of the package integrates."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import beta as beta_fn

from ckn.errors import DivergentWeightError, IntegrandError
from ckn.quadrature import (PANEL_COUNT, gauss_panels, sphere_area,
                            weighted_radial_integral)


def bubble_moment(n, p, nu):
    """omega_n * int r^(n-1+p) (1+r^2)^(-nu) dr via the Beta function."""
    mu = n + p
    return sphere_area(n) * 0.5 * beta_fn(0.5 * mu, nu - 0.5 * mu)


def test_sphere_area_spot_values():
    assert sphere_area(2) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert sphere_area(4) == pytest.approx(2.0 * math.pi**2, rel=1e-15)


@pytest.mark.parametrize(
    "n,p,nu",
    [(5, 0.0, 5.0), (5, -4.0, 1.0), (5, -2.0, 3.0), (6, 0.0, 4.0),
     (7, -2.0, 3.5), (8, 2.0, 7.0)],
)
def test_beta_oracle(n, p, nu):
    got = weighted_radial_integral(lambda r: (1.0 + r**2) ** (-nu), n, p)
    assert got == pytest.approx(bubble_moment(n, p, nu), rel=1e-12)


def test_gaussian_moment():
    # omega_n int r^(n-1) e^{-r^2} dr = pi^(n/2)
    got = weighted_radial_integral(lambda r: np.exp(-(r**2)), 5, 0.0)
    assert got == pytest.approx(math.pi**2.5, rel=1e-13)


def test_finite_domain_polynomial_exact():
    # omega_n int_0^1 r^(n-1) r^2 dr = omega_n / (n + 2)
    got = weighted_radial_integral(lambda r: r**2, 6, 0.0, domain=(0.0, 1.0))
    assert got == pytest.approx(sphere_area(6) / 8.0, rel=1e-14)


def test_singular_weight_near_zero():
    # r^{-4} against the n=5 measure is r^0: integrable but graded
    got = weighted_radial_integral(
        lambda r: np.ones_like(r), 5, -4.0, domain=(0.0, 1.0)
    )
    assert got == pytest.approx(sphere_area(5), rel=1e-12)


def test_divergent_weight_raises():
    with pytest.raises(DivergentWeightError):
        weighted_radial_integral(lambda r: np.ones_like(r), 5, -5.0)


def test_nonfinite_integrand_raises():
    with pytest.raises(IntegrandError), np.errstate(divide="ignore"):
        weighted_radial_integral(lambda r: 1.0 / (r - r), 5, 0.0, domain=(0.0, 1.0))


def test_bad_domain_raises():
    with pytest.raises(ValueError):
        weighted_radial_integral(lambda r: r, 5, 0.0, domain=(1.0, 1.0))


@given(
    st.integers(5, 9),
    st.floats(0.5, 3.0),
)
@settings(max_examples=25, deadline=None)
def test_dilation_covariance(n, c):
    """int r^(n-1) f(c r) dr = c^{-n} int r^(n-1) f(r) dr."""
    base = weighted_radial_integral(lambda r: (1.0 + r**2) ** (-n), n, 0.0)
    scaled = weighted_radial_integral(
        lambda r: (1.0 + (c * r) ** 2) ** (-n), n, 0.0
    )
    assert scaled == pytest.approx(base / c**n, rel=1e-10)


def test_doubled_panels_tighten():
    # omega_5 int r^-0.9 e^-r dr = omega_5 Gamma(0.1): the r^-0.9 endpoint
    # is hard enough that the default rule misses by about 2e-3
    exact = sphere_area(5) * math.gamma(0.1)
    f = lambda r: np.exp(-r)
    err = abs(weighted_radial_integral(f, 5, -4.9) - exact) / exact
    err_doubled = abs(weighted_radial_integral(f, 5, -4.9, doubled=True) - exact) / exact
    assert err_doubled <= err / 10.0


@pytest.mark.parametrize("domain,calls", [((0.0, 1.0), 1), ((0.5, 2.0), 1),
                                          ((0.1, 10.0), 1), ((0.0, math.inf), 2)])
def test_integrand_called_once_per_part(domain, calls):
    seen = []

    def f(r):
        seen.append(r.size)
        return np.exp(-r)

    weighted_radial_integral(f, 5, 0.0, domain=domain)
    assert len(seen) == calls


@pytest.mark.parametrize("order", [1, 4, 12])
def test_gauss_panels_exact_to_degree_2order_minus_1(order):
    edges = np.array([-1.0, -0.3, 0.2, 0.2, 1.7, 2.0, 2.0])
    x, w = gauss_panels(edges, order)
    assert x.size == w.size == 4 * order  # the two zero-width panels dropped
    assert np.all(np.diff(x) > 0.0)
    deg = 2 * order - 1
    exact = (2.0 ** (deg + 1) - (-1.0) ** (deg + 1)) / (deg + 1)
    assert np.sum(w * x**deg) == pytest.approx(exact, rel=1e-13)
    assert np.sum(w) == pytest.approx(3.0, rel=1e-15)


def test_integrand_error_names_the_panel():
    edges = np.linspace(0.5, 2.0, PANEL_COUNT + 1)
    bad = lambda r: np.where(r > 1.0, np.nan, 1.0)
    with pytest.raises(IntegrandError,
                       match=re.escape(f"on panel [{edges[21]}, {edges[22]}]")):
        weighted_radial_integral(bad, 5, 0.0, domain=(0.5, 2.0))
    # r = 1 + tan(theta): the tail's theta panels are [k pi/128, (k+1) pi/128]
    theta = np.linspace(0.0, 0.5 * math.pi, PANEL_COUNT + 1)
    k = int(np.searchsorted(theta, math.atan(2.0)))
    bad = lambda r: np.where(r > 3.0, np.inf, np.exp(-r))
    with pytest.raises(IntegrandError,
                       match=re.escape(f"on tail panel [{theta[k - 1]}, {theta[k]}]")):
        weighted_radial_integral(bad, 5, 0.0)
