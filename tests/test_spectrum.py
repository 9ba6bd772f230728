"""Spectral distance constants on the sphere and half-sphere."""
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ckn.critical import strictness_sign_check
from ckn.params import radial_closed_forms
from ckn.phase import positivity_phase
from ckn.spectrum import (full_sphere, half_sphere, positivity_predicates,
                          rellich_constant, spectral_distance)


def test_full_sphere_rellich_spot():
    # -gamma = -5/4 sits closest to the k=0 eigenvalue 0
    assert float(rellich_constant(full_sphere(5), 0.0)) == 1.5625


def test_half_sphere_rellich_spot():
    # |-gamma - level| = |-1.25 - 4| at k = 1
    assert rellich_constant(half_sphere(5), 0.0) == 27.5625


@given(st.integers(5, 10), st.floats(-25, 25, allow_nan=False))
def test_rellich_bounded_by_radial_closed_form(n, alpha):
    """Squared distance to a set containing 0 never beats the k=0 distance;
    both are exact values rounded once, so the bound holds in floats."""
    assert rellich_constant(full_sphere(n), alpha) <= radial_closed_forms(n, alpha).s2_rad


@given(st.integers(5, 10),
       st.floats(-25, 25, allow_nan=False) | st.floats(-1e12, 1e12, allow_nan=False))
def test_positivity_predicates_consistent(n, alpha):
    model = full_sphere(n)
    preds = positivity_predicates(model, alpha)
    assert preds.lambda1 <= preds.lambda2
    # sq_positive is exactly "the exact constant is positive"
    assert preds.sq_positive == (_exact_nearest(model, alpha)[1] > 0)
    if preds.sq_positive:
        assert rellich_constant(model, alpha) > 0.0


def test_spectrum_eigenvalues_monotone():
    model = full_sphere(6)
    lam = [model.sphere_eigenvalue(k) for k in range(6)]
    assert lam == sorted(lam)
    assert lam[0] == 0.0
    assert lam[1] == 5.0  # k (n - 2 + k) at k = 1, n = 6


def _exact_gamma(n, alpha):
    """gamma_alpha at the exact value of alpha (a float is a dyadic rational)."""
    return Fraction(n - 2, 2) ** 2 - ((Fraction(alpha) - 2) / 2) ** 2


def _exact_nearest(model, alpha):
    """The level nearest -gamma_alpha (the smaller on ties) and its exact
    distance.  The levels k(n-2+k) grow with k and lie in [k^2, (k+n)^2),
    so with k0 = isqrt(floor(-gamma)) the two levels around -gamma have k
    in k0 - n ... k0 + 1, and every k there is compared."""
    target = -_exact_gamma(model.n, alpha)
    k0 = math.isqrt(max(0, math.floor(target)))
    levels = [model.sphere_eigenvalue(k)
              for k in range(max(model.k_min, k0 - model.n), k0 + 2)]
    dists = [abs(target - level) for level in levels]
    best = min(dists)
    return levels[dists.index(best)], best


def _brute_force_nearest(model, alpha):
    """The first level minimizing |-gamma_alpha - k(n-2+k)| over every
    k >= k_min up to a level above |gamma|, and that distance."""
    target = -_exact_gamma(model.n, alpha)
    ks = range(model.k_min, math.isqrt(math.floor(abs(target))) + 3)
    dists = [abs(target - model.sphere_eigenvalue(k)) for k in ks]
    best = min(dists)
    return model.sphere_eigenvalue(ks[dists.index(best)]), best


def _exact(alpha, value):
    """A reference value as ckn reports it: rounded once for a float alpha."""
    return float(value) if isinstance(alpha, float) else value


@pytest.mark.parametrize("make", [full_sphere, half_sphere])
@pytest.mark.parametrize("n", [2, 3, 5, 8, 11])
def test_spectral_distance_matches_brute_force(n, make):
    model = make(n)
    rng = random.Random(n)
    alphas = [rng.uniform(-200.0, 200.0) for _ in range(100)]
    alphas += [float(a) / 2 for a in range(-80, 81)]
    alphas += [Fraction(rng.randrange(-10**4, 10**4), rng.randrange(1, 50))
               for _ in range(100)]
    for alpha in alphas:
        level, best = _brute_force_nearest(model, alpha)
        dist, got = spectral_distance(model, alpha)
        assert (got, dist) == (level, _exact(alpha, best)), alpha
        assert type(dist) is type(_exact(alpha, best))


@pytest.mark.parametrize("make", [full_sphere, half_sphere])
@pytest.mark.parametrize("n", [5, 6, 7])
def test_spectral_distance_at_alpha_1e12(n, make):
    """-gamma is about 2.5e23 here, beyond the reach of a walk over k; the
    distance and the constant are the exact ones, rounded once."""
    model = make(n)
    level, dist = _exact_nearest(model, 1e12)
    assert spectral_distance(model, 1e12) == (float(dist), level)
    assert rellich_constant(model, 1e12) == float(dist * dist)


def _decision_alphas(n):
    """Random alpha in [-1e3, 1e3]; integers (on a level when alpha - n is
    even and |alpha - 2| >= n - 2, on the strictness boundary at 0 and 4)
    and half-integers; alpha on a level at |alpha - 2| = 2k + n - 2 for k
    from 1e13 to 1e15; |alpha| = 3e76, near the largest admitted; and
    alpha next to the sphere and strictness thresholds."""
    rng = random.Random(n)
    alphas = [rng.uniform(-1e3, 1e3) for _ in range(200)]
    alphas += [j / 2 for j in range(-60, 61)] + [float(j) for j in range(-1000, 1001, 37)]
    ks = [10**13, 10**14, 10**15] + [rng.randrange(10**13, 10**15) for _ in range(30)]
    alphas += [float(n + 2 * k) for k in ks] + [float(4 - n - 2 * k) for k in ks[:10]]
    alphas += [200000000000005.0, 3e76, -3e76, 1e-300, -1e-300, 2.0, 4.0, 0.0]
    # 2 + the float roots of the sphere and strictness thresholds, and the
    # floats next to them: a float comparison with the rounded root errs here
    for root2 in ((n - 1) ** 2 + 1, 4 + 2 * (n - 2) ** 2 * (n - 4) / max(n - 3, 1)):
        t = 2.0 + math.sqrt(root2)
        alphas += [t, math.nextafter(t, math.inf), math.nextafter(t, -math.inf)]
    alphas += [Fraction(rng.randrange(-10**4, 10**4), rng.randrange(1, 50))
               for _ in range(30)]
    return alphas


@pytest.mark.parametrize("make", [full_sphere, half_sphere])
@pytest.mark.parametrize("n", [2, 3, 5, 6, 7, 11])
def test_exact_decisions_match_a_fraction_reference(n, make):
    """Every closed-form decision and constant against the exact value of
    alpha: the Rellich constant (rounded once), sq_positive, break_pos, the
    sphere threshold and, for n >= 5, the strictness predicate and c(n, -alpha/2)."""
    model = make(n)
    lam1, lam2 = (model.sphere_eigenvalue(k) for k in (model.k_min, model.k_min + 1))
    j = Fraction((n - 2) ** 2 * (n - 4), 2 * (n - 3)) if n >= 5 else None
    for alpha in _decision_alphas(n):
        g = _exact_gamma(n, alpha)
        shift2 = (Fraction(alpha) - 2) ** 2
        _, dist = _exact_nearest(model, alpha)
        assert rellich_constant(model, alpha) == _exact(alpha, dist * dist), alpha
        preds = positivity_predicates(model, alpha)
        assert preds.sq_positive == (dist * dist > 0), alpha
        assert preds.break_pos == (-g > Fraction(lam1 + lam2, 2)), alpha
        if isinstance(alpha, float):
            rep = positivity_phase(model, alpha)
            assert rep.sphere_threshold_exceeded == (shift2 > (n - 1) ** 2 + 1), alpha
        if j is not None:
            a = -Fraction(alpha) / 2
            x = a * (a + 2)
            rep = strictness_sign_check(n, alpha)
            assert rep["predicate"] == (4 < shift2 < 4 + 4 * j), alpha
            assert rep["coefficient"] == float(x * (x - j)), alpha
