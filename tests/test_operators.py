"""The integral identities of the change of variables."""
import math

import pytest

from ckn.errors import SupportWarning
from ckn.grids import LineGrid
from ckn.operators import norm_identity_check
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


@pytest.mark.filterwarnings("ignore:q=3.0 exceeds the critical exponent")
def test_norm_identity_trapezoid_is_finite_in_high_dimension():
    # r^(n-1-beta) overflows at n = 60 where |w(-log r)|^q / r does not; the
    # trapezoid error is that of int |w|^q ds, the same in every dimension
    rel_errors = identity_errors(n=60, N=4001)
    assert all(math.isfinite(v) for v in rel_errors.values()), rel_errors
    assert rel_errors["q_discrete"] == pytest.approx(
        identity_errors(n=5, N=4001)["q_discrete"], rel=1e-9)


def test_norm_identity_warns_on_fat_boundary():
    with pytest.warns(SupportWarning):
        identity_errors(L=3.0, N=301)
