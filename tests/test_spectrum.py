"""Spectral distance constants on the sphere and half-sphere."""
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ckn.errors import ConsistencyError
from ckn.params import radial_closed_forms
from ckn.spectrum import (explicit_spectrum, full_sphere, half_sphere,
                          positivity_predicates, rellich_constant,
                          spectral_distance)


def test_full_sphere_rellich_spot():
    # -gamma = -25/16 sits closest to the k=0 eigenvalue 0
    rc = rellich_constant(full_sphere(5), 5, 0.0)
    assert float(rc.value) == 1.5625


def test_half_sphere_rellich_spot():
    rc = rellich_constant(half_sphere(5), 5, 0.0)
    assert float(rc.value) == pytest.approx(27.5625, abs=1e-12)


def test_explicit_spectrum_distance():
    model = explicit_spectrum([0.0, 3.0, 8.0])
    dist, _ = spectral_distance(model, 2.0)
    assert float(dist) == 1.0


@given(st.integers(5, 10), st.floats(-25, 25, allow_nan=False))
def test_rellich_bounded_by_radial_closed_form(n, alpha):
    """Squared distance to a set containing 0 never beats the k=0 distance."""
    rc = rellich_constant(full_sphere(n), n, alpha)
    s2 = float(radial_closed_forms(n, alpha).s2_rad)
    assert float(rc.value) <= s2 * (1.0 + 1e-12)


@given(st.integers(5, 10), st.floats(-25, 25, allow_nan=False))
def test_positivity_predicates_consistent(n, alpha):
    preds = positivity_predicates(full_sphere(n), n, alpha)
    assert preds.lambda1 <= preds.lambda2
    # sq_positive requires the constant to be positive
    rc = rellich_constant(full_sphere(n), n, alpha)
    if preds.sq_positive:
        assert float(rc.value) > 0.0


def test_spectrum_eigenvalues_monotone():
    model = full_sphere(6)
    lam = [model.sphere_eigenvalue(k) for k in range(6)]
    assert lam == sorted(lam)
    assert lam[0] == 0.0
    assert lam[1] == 5.0  # k (n - 2 + k) at k = 1, n = 6


def test_explicit_spectrum_has_no_sphere_levels():
    with pytest.raises(ConsistencyError):
        explicit_spectrum([1.0, 2.0]).sphere_eigenvalue(1)
