"""The change-of-variables transform and its integral identities."""
import math

import numpy as np
import pytest

from ckn.errors import SupportWarning
from ckn.grids import LineGrid, LineProfile
from ckn.operators import emden_fowler_inverse, norm_identity_check
from ckn.params import derive_params


def gaussian_line_profile(n=5, alpha=0.0, q=3.0, L=12.0, N=2001):
    grid = LineGrid(L, N)
    params = derive_params(n, alpha, q)
    return LineProfile(grid=grid, values=np.exp(-grid.s**2), params=params)


def test_norm_identity_accurate_routes():
    rel_errors = norm_identity_check(gaussian_line_profile(N=4001))
    assert rel_errors["q"] <= 1e-6
    assert rel_errors["quad"] <= 1e-6


def test_norm_identity_discrete_routes_second_order():
    e1 = norm_identity_check(gaussian_line_profile(N=1001))
    e2 = norm_identity_check(gaussian_line_profile(N=2001))
    for key in ("q_discrete", "quad_discrete"):
        slope = math.log2(e1[key] / e2[key])
        assert 1.8 <= slope <= 2.2, (key, slope)


def test_norm_identity_warns_on_fat_boundary():
    grid = LineGrid(3.0, 301)
    params = derive_params(5, 0.0, 3.0)
    w = LineProfile(grid=grid, values=np.exp(-grid.s**2), params=params)
    with pytest.warns(SupportWarning):
        norm_identity_check(w)


@pytest.mark.parametrize("alpha", [0.0, 3.0, -2.5])
def test_emden_fowler_inverse_is_r_m_w(alpha):
    """u(r) = r^m w(-log r), m = (4 - n - alpha)/2, on the increasing
    nodes r = e^(-s)."""
    params = derive_params(5, alpha, 3.0)
    grid = LineGrid(6.0, 1201)
    w = LineProfile(grid=grid, values=np.exp(-grid.s**2) * (2.0 + np.sin(grid.s)),
                    params=params)
    u = emden_fowler_inverse(w)
    assert np.all(np.diff(u.nodes) > 0.0)
    assert np.allclose(u.nodes, np.exp(-grid.s[::-1]), rtol=1e-12, atol=0.0)
    t = -np.log(u.nodes)
    m = (4.0 - 5 - alpha) / 2.0
    expected = u.nodes**m * np.exp(-t**2) * (2.0 + np.sin(t))
    assert u.n == 5
    assert np.allclose(u.values, expected, rtol=1e-9, atol=0.0)
