"""Symmetry-breaking and positivity-breaking certificates."""
import dataclasses
import math
import random
from fractions import Fraction

import mpmath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckn.errors import ParameterDomainError, UnconvergedResultError
from ckn.params import gamma_alpha, phase_thresholds
from ckn.phase import (PhaseRow, closed_form_breaking, phase_row, positivity_phase,
                       symmetry_certificate)
from ckn.radial_solver import MinimizationConfig, minimize_mu_q
from ckn.spectrum import full_sphere, half_sphere, spectral_distance


def test_closed_form_threshold_spot():
    # |gamma(5, 14)| = 33.75 is far beyond (n-1)(1+sqrt(q-1))/(q-2) = 2
    assert abs(float(gamma_alpha(5, 14.0))) == 33.75
    assert phase_thresholds(5, 10.0).bs1 == 2.0
    assert closed_form_breaking(5, 14.0, 10.0)
    assert not closed_form_breaking(5, 0.0, 3.0)


def test_closed_form_needs_q_above_2():
    assert not closed_form_breaking(5, 14.0, 2.0)
    for q in (1.5, math.nan):
        with pytest.raises(ParameterDomainError):
            closed_form_breaking(5, 14.0, q)


def _exact_breaking(n, alpha, q):
    """|gamma_alpha| > (n-1)(1+sqrt(q-1))/(q-2) at the exact alpha and q, the
    root to 60 digits; None when the two sides are closer than that resolves."""
    with mpmath.workdps(60):
        g = Fraction(n - 2, 2) ** 2 - ((Fraction(alpha) - 2) / 2) ** 2
        q = Fraction(q)
        lhs = mpmath.mpf(abs(g).numerator) / abs(g).denominator
        rhs = (n - 1) * (1 + mpmath.sqrt(mpmath.mpf(q.numerator) / q.denominator - 1)) \
            / (mpmath.mpf(q.numerator) / q.denominator - 2)
        if abs(lhs - rhs) <= mpmath.mpf(10) ** -50 * (1 + abs(rhs)):
            return None
        return lhs > rhs


def test_closed_form_breaking_is_exact():
    # at n = 5, q = 10 the threshold is |gamma| > 2, i.e. (alpha-2)^2 > 17 or
    # < 1; the floats next to 2 +- sqrt(17) and 2 +- 1 straddle it, and the
    # float gamma_alpha rounds to -2.0 or 2.0 at some of them
    for t in (math.sqrt(17.0), 1.0):
        for c in (2.0 + t, 2.0 - t):
            for a in (c, math.nextafter(c, math.inf), math.nextafter(c, -math.inf)):
                g = Fraction(9, 4) - ((Fraction(a) - 2) / 2) ** 2
                assert closed_form_breaking(5, a, 10.0) == (abs(g) > 2), a
    rng = random.Random(5)
    for _ in range(400):
        n, q = rng.randrange(3, 12), rng.uniform(2.01, 12.0)
        a = 2.0 + rng.choice((-1, 1)) * rng.uniform(0.0, 40.0)
        ref = _exact_breaking(n, a, q)
        if ref is not None:
            assert closed_form_breaking(n, a, q) == ref, (n, a, q)
    # alpha at the float threshold on the far side, where -gamma = thr:
    # |alpha - 2| = 2 sqrt(thr + (n-2)^2/4)
    for n, q in ((5, 3.0), (6, 2.5), (7, 4.0), (8, 3.0)):
        thr = (n - 1) * (1.0 + math.sqrt(q - 1.0)) / (q - 2.0)
        c = 2.0 + 2.0 * math.sqrt(thr + (n - 2) ** 2 / 4.0)
        for a in (c, math.nextafter(c, math.inf), math.nextafter(c, -math.inf)):
            ref = _exact_breaking(n, a, q)
            if ref is not None:
                assert closed_form_breaking(n, a, q) == ref, (n, a, q)


@given(st.integers(3, 10), st.floats(2.2, 12.0))
@settings(max_examples=60)
def test_threshold_matches_formula(n, q):
    thr = phase_thresholds(n, q).bs1
    assert thr == pytest.approx((n - 1) * (1.0 + math.sqrt(q - 1.0)) / (q - 2.0),
                                rel=1e-12)


def test_certificate_far_regime_broken():
    res = minimize_mu_q(5, 14.0, 10.0, MinimizationConfig())
    cert = symmetry_certificate(res)
    assert cert.Q > 0.0
    assert cert.certified_broken


def test_certificate_symmetric_regime():
    res = minimize_mu_q(5, 0.0, 3.0, MinimizationConfig())
    cert = symmetry_certificate(res)
    # xi is bounded below by gamma = 1.25 on any competitor
    assert cert.xi >= 1.25 * (1.0 - 1e-6)
    assert not cert.certified_broken


def test_certificate_refuses_unconverged():
    res = dataclasses.replace(minimize_mu_q(5, 0.0, 3.0, MinimizationConfig()),
                              converged=False, status="max_iters")
    with pytest.raises(UnconvergedResultError):
        symmetry_certificate(res)


def test_certificate_needs_q_above_2():
    res = minimize_mu_q(5, 0.0, 2.0, MinimizationConfig())
    assert res.converged
    with pytest.raises(ParameterDomainError):
        symmetry_certificate(res)


def test_spectral_distance_spot():
    # the sphere level nearest -gamma(5, 0) = -1.25 is k = 0, eigenvalue 0
    dist, level = spectral_distance(full_sphere(5), 0.0)
    assert level == 0
    assert dist == 1.25


def test_positivity_phase_consistent_and_noted():
    rep = positivity_phase(full_sphere(5), 0.0)
    assert not rep.break_pos
    far = positivity_phase(full_sphere(5), 14.0)
    assert far.break_pos == far.sphere_threshold_exceeded


def test_positivity_phase_half_sphere_runs():
    rep = positivity_phase(half_sphere(5), 9.0)
    assert rep.lambda1 >= 0.0 and rep.lambda2 > rep.lambda1


@pytest.mark.parametrize("alpha,q", [(14.0, 10.0), (0.0, 3.0), (9.0, None)])
def test_phase_row_collects_the_reports(alpha, q):
    model = half_sphere(5)
    rep = positivity_phase(model, alpha)
    assert phase_row(model, alpha, q) == PhaseRow(
        alpha=alpha, gamma_alpha=float(gamma_alpha(5, alpha)),
        break_pos=rep.break_pos,
        sphere_threshold_exceeded=rep.sphere_threshold_exceeded,
        lambda1=rep.lambda1, lambda2=rep.lambda2,
        bs_closed_form=q is not None and closed_form_breaking(5, alpha, q))
