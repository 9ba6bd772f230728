"""The change-of-variables transform and its integral identities."""
import math

import numpy as np
import pytest

from ckn.errors import SupportWarning
from ckn.grids import LineGrid, LineProfile
from ckn.operators import emden_fowler_inverse, norm_identity_check
from ckn.params import derive_params


def identity_errors(n=5, L=12.0, N=2001):
    return norm_identity_check(derive_params(n, 0.0, 3.0), LineGrid(L, N))


def test_norm_identity_accurate_routes():
    """Quadratures of the exact profile against the closed forms."""
    for n in (5, 6, 7, 8):
        rel_errors = identity_errors(n=n, N=4001)
        assert rel_errors["q"] <= 1e-13, n
        assert rel_errors["quad"] <= 1e-13, n


def test_norm_identity_discrete_routes_second_order():
    e1 = identity_errors(N=1001)
    e2 = identity_errors(N=2001)
    for key in ("q_discrete", "quad_discrete"):
        slope = math.log2(e1[key] / e2[key])
        assert 1.8 <= slope <= 2.2, (key, slope)


def test_norm_identity_warns_on_fat_boundary():
    with pytest.warns(SupportWarning):
        identity_errors(L=3.0, N=301)


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
