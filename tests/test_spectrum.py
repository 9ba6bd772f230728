"""Spectral distance constants on the sphere and half-sphere."""
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ckn.params import gamma_alpha, radial_closed_forms
from ckn.spectrum import (_membership_tol, _nearest_sphere_level, full_sphere,
                          half_sphere, positivity_predicates, rellich_constant,
                          spectral_distance)


def test_full_sphere_rellich_spot():
    # -gamma = -25/16 sits closest to the k=0 eigenvalue 0
    assert float(rellich_constant(full_sphere(5), 5, 0.0)) == 1.5625


def test_half_sphere_rellich_spot():
    assert float(rellich_constant(half_sphere(5), 5, 0.0)) == pytest.approx(27.5625, abs=1e-12)


@given(st.integers(5, 10), st.floats(-25, 25, allow_nan=False))
def test_rellich_bounded_by_radial_closed_form(n, alpha):
    """Squared distance to a set containing 0 never beats the k=0 distance."""
    rc = rellich_constant(full_sphere(n), n, alpha)
    s2 = float(radial_closed_forms(n, alpha).s2_rad)
    assert float(rc) <= s2 * (1.0 + 1e-12)


@given(st.integers(5, 10),
       st.floats(-25, 25, allow_nan=False) | st.floats(-1e12, 1e12, allow_nan=False))
def test_positivity_predicates_consistent(n, alpha):
    model = full_sphere(n)
    preds = positivity_predicates(model, n, alpha)
    assert preds.lambda1 <= preds.lambda2
    rellich = float(rellich_constant(model, n, alpha))
    # sq_positive requires the constant to be positive
    if preds.sq_positive:
        assert rellich > 0.0
    # and a distance well beyond the membership tolerance grants it
    k, _ = _nearest_sphere_level(model, -gamma_alpha(n, alpha))
    if rellich > (2.0 * _membership_tol(model, k)) ** 2:
        assert preds.sq_positive


def test_spectrum_eigenvalues_monotone():
    model = full_sphere(6)
    lam = [model.sphere_eigenvalue(k) for k in range(6)]
    assert lam == sorted(lam)
    assert lam[0] == 0.0
    assert lam[1] == 5.0  # k (n - 2 + k) at k = 1, n = 6


def _brute_force_nearest(model, target):
    """The first k >= k_min minimizing |target - k(n-2+k)|, searched over
    every k up to a level above |target|, and that distance."""
    ks = range(model.k_min, math.isqrt(math.floor(abs(target))) + 3)
    dists = [abs(target - k * (model.n - 2 + k)) for k in ks]
    best = min(dists)
    return ks[dists.index(best)], best


@pytest.mark.parametrize("make", [full_sphere, half_sphere])
@pytest.mark.parametrize("n", [2, 3, 5, 8, 11])
def test_spectral_distance_matches_brute_force(n, make):
    model = make(n)
    rng = random.Random(n)
    targets = [rng.uniform(-1e3, 1e6) for _ in range(150)]
    targets += [float(t) for t in range(-20, 200)]
    targets += [Fraction(rng.randrange(-10**4, 10**6), rng.randrange(1, 50))
                for _ in range(100)]
    # exact midpoints between two levels: ties go to the smaller level
    targets += [Fraction(model.sphere_eigenvalue(k) + model.sphere_eigenvalue(k + 1), 2)
                for k in range(12)]
    for target in targets:
        k, best = _brute_force_nearest(model, target)
        dist, level = spectral_distance(model, target)
        assert (level, dist) == (model.sphere_eigenvalue(k), best), target
        assert type(dist) is type(best)


@pytest.mark.parametrize("make", [full_sphere, half_sphere])
@pytest.mark.parametrize("n", [5, 6, 7])
def test_spectral_distance_at_alpha_1e12(n, make):
    """-gamma is about 2.5e23 here, beyond the reach of a walk over k; the
    nearest level comes from the exact integer root of 4 target + (n-2)^2."""
    model = make(n)
    target = -gamma_alpha(n, 1e12)
    exact = Fraction(target)
    root = (math.isqrt(math.floor(4 * exact) + (n - 2) ** 2) - (n - 2)) // 2
    best = min((model.sphere_eigenvalue(k) for k in (root, root + 1)),
               key=lambda level: abs(exact - level))
    dist, level = spectral_distance(model, target)
    assert level == best
    assert abs(Fraction(dist) - abs(exact - best)) <= math.ulp(target)
    assert rellich_constant(model, n, 1e12) == dist * dist
