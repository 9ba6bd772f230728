"""Grid and profile containers plus the two-column profile file format."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckn.errors import GridError, ParameterDomainError
from ckn.grids import (LineGrid, LineProfile, RadialProfile, alpha_grid,
                       load_profile, log_uniform_radial_nodes, save_profile)
from ckn.params import derive_params


def test_line_grid_spacing_and_center():
    g = LineGrid(12.0, 2001)
    assert g.h == pytest.approx(0.012, rel=1e-15)
    s = g.s
    assert s[0] == -12.0 and s[-1] == 12.0
    assert s[g.N // 2] == 0.0  # odd N pins s = 0


def test_line_grid_validation():
    with pytest.raises(GridError):
        LineGrid(12.0, 2000)  # even
    with pytest.raises(GridError):
        LineGrid(-1.0, 2001)
    for L in (math.nan, math.inf):
        with pytest.raises(GridError):
            LineGrid(L, 2001)


def test_radial_profile_validation():
    with pytest.raises(GridError):
        RadialProfile(nodes=np.array([0.0, 1.0, 1.0]),
                      values=np.zeros(3), n=5)
    with pytest.raises(GridError):
        RadialProfile(nodes=np.array([-0.1, 1.0]), values=np.zeros(2), n=5)


@pytest.mark.parametrize("nodes, values, named", [
    ([0.0, 0.3, 0.6, 1.0], [1.0, math.nan, 0.5, 0.4], "u=nan at r=0.3 (1 "),
    ([0.0, math.nan, 0.6, 1.0], [1.0, 0.7, 0.5, 0.0], "u=0.7 at r=nan (1 "),
    ([0.0, 0.5, math.inf], [1.0, -math.inf, 0.0], "u=-inf at r=0.5 (2 "),
])
def test_radial_profile_refuses_non_finite_entries(nodes, values, named):
    """A NaN node passes the order test and a NaN value the support checks
    of `critical`, so the profile refuses both and names the first."""
    with pytest.raises(GridError, match=re.escape(named)):
        RadialProfile(nodes=np.array(nodes), values=np.array(values), n=6)


def test_log_uniform_nodes_increasing():
    r = log_uniform_radial_nodes(LineGrid(4.0, 101))
    assert np.all(np.diff(r) > 0)
    assert r[0] == pytest.approx(np.exp(-4.0))


def test_line_profile_roundtrip(tmp_path):
    grid = LineGrid(6.0, 201)
    params = derive_params(5, 0.0, 3.0)
    w = LineProfile(grid=grid, values=np.exp(-grid.s**2), params=params)
    path = tmp_path / "w.dat"
    save_profile(path, w)
    lines = path.read_text().splitlines()
    assert lines[:4] == ["# kind=line", "# n=5", "# alpha=0", "# q=3"]
    # 17-significant-digit emission round-trips doubles exactly
    cols = np.array([[float(x) for x in line.split()] for line in lines[4:]])
    np.testing.assert_array_equal(cols[:, 0], grid.s)
    np.testing.assert_array_equal(cols[:, 1], w.values)
    # line profiles are written for inspection; ckn reads only radial ones
    with pytest.raises(GridError, match="kind='line'"):
        load_profile(path)


def test_radial_profile_roundtrip(tmp_path):
    r = np.linspace(0.0, 1.0, 101)
    u = RadialProfile(nodes=r, values=(1 - r**2) ** 3, n=6)
    path = tmp_path / "u.dat"
    save_profile(path, u)
    back = load_profile(path)
    assert isinstance(back, RadialProfile)
    assert back.n == 6
    np.testing.assert_array_equal(back.nodes, u.nodes)
    np.testing.assert_array_equal(back.values, u.values)


@given(st.floats(0.5, 50.0), st.integers(2, 400))
@settings(max_examples=50)
def test_grid_h_consistent(L, half):
    g = LineGrid(L, 2 * half + 1)
    s = g.s
    assert np.allclose(np.diff(s), g.h, rtol=1e-12, atol=1e-12)


def test_alpha_grid():
    assert alpha_grid(-1.0, 1.0, 0.5) == [-1.0, -0.5, 0.0, 0.5, 1.0]
    # (0.3 - 0) / 0.1 rounds just below 3; the endpoint is still kept
    assert len(alpha_grid(0.0, 0.3, 0.1)) == 4
    assert alpha_grid(1.0, 1.0, 0.5) == [1.0]
    for bad in ((0.0, math.inf, 1.0), (math.nan, 1.0, 0.1), (0.0, 1.0, 0.0),
                (0.0, 1.0, -0.1), (0.0, 1.0, math.inf), (1.0, 0.0, 0.5)):
        with pytest.raises(ParameterDomainError):
            alpha_grid(*bad)
