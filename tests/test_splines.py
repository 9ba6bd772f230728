"""The splines of `ckn.splines` against scipy.interpolate, bit for bit, on
the grids and evaluation points ckn uses; their refusals; and that no
certify command loads scipy.interpolate or what it pulls in."""
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import CubicSpline, make_interp_spline

from ckn.bn_ball import _bn_nodes
from ckn.grids import LineGrid
from ckn.quadrature import GRADING_LEVELS, PANEL_COUNT, PANEL_ORDER, gauss_panels
from ckn.splines import NaturalCubic, not_a_knot

ROOT = Path(__file__).resolve().parents[1]


def radial_quadrature_nodes():
    """The r nodes of `weighted_radial_integral` on (0, inf): graded panels
    on (0, 1], then r = 1 + tan(theta) on the tail."""
    graded = np.append(0.0, 0.5 ** np.arange(GRADING_LEVELS, -1, -1))
    theta = np.linspace(0.0, 0.5 * math.pi, PANEL_COUNT + 1)
    return np.r_[gauss_panels(graded, PANEL_ORDER)[0],
                 1.0 + np.tan(gauss_panels(theta, PANEL_ORDER)[0])]


def points(x, rng, extra):
    """The nodes, both ends and just past them, random points and `extra`."""
    span = x[-1] - x[0]
    return np.r_[x, x[0], x[-1], x[0] - 0.01 * span, x[-1] + 0.01 * span,
                 rng.uniform(x[0], x[-1], 20000), extra]


@pytest.mark.parametrize("L, N, bump", [(12.0, 4001, 0.0), (12.0, 2001, 0.3),
                                        (3.0, 301, 0.0), (1.0, 5, 0.5)])
def test_natural_cubic_matches_scipy(L, N, bump):
    grid = LineGrid(L, N)
    x = grid.s
    y = np.exp(-x**2) * (1.0 + bump * np.sin(3.0 * x))
    ref, spl = CubicSpline(x, y, bc_type="natural"), NaturalCubic(x, y)
    assert np.array_equal(ref.c, spl.c)
    # the identity check's points t = -log r and the spline energy's rule
    v = points(x, np.random.default_rng(N), np.r_[-np.log(radial_quadrature_nodes()),
                                                  gauss_panels(x, 4)[0]])
    for nu in (0, 1, 2):
        assert np.array_equal(ref(v, nu=nu), spl(v, nu)), nu


def radial_profiles():
    r = np.linspace(0.0, 1.0, 2001)
    yield r, (1.0 - r**2) ** 3, 5
    r = _bn_nodes(401)
    yield r, (1.0 - r**2) ** 2 / (1.0 + (r / 0.05) ** 2), 5
    for size in (6, 7):
        r = np.linspace(0.0, 1.0, size)
        yield r, (1.0 - r**2) ** 3, 5
    for r in (np.array([0.0, 0.3, 0.6, 1.0]), np.array([0.0, 0.25, 0.4, 0.7, 1.0])):
        yield r, (1.0 - r**2) ** 3, 3


@pytest.mark.parametrize("x, y, k", list(radial_profiles()),
                         ids=["uniform-2001", "bn-401", "6", "7", "4", "5"])
def test_not_a_knot_matches_scipy(x, y, k):
    ref, spl = make_interp_spline(x, y, k=k), not_a_knot(x, y, k)
    # the shifted-weight comparison's radial Gauss nodes
    v = points(x, np.random.default_rng(x.size),
               gauss_panels(np.linspace(0.0, x[-1], 49), 12)[0])
    for nu in (0, 1, 2):
        ref_nu = ref.derivative(nu) if nu else ref
        assert np.array_equal(ref_nu.t, spl.t), nu
        assert np.array_equal(ref_nu.c, spl.c), nu
        assert np.array_equal(ref_nu(v), spl(v)), nu
        spl = spl.derivative()


@pytest.mark.parametrize("build, size", [(NaturalCubic, 2),
                                         (lambda x, y: not_a_knot(x, y, 3), 4),
                                         (lambda x, y: not_a_knot(x, y, 5), 6)])
def test_splines_refuse_short_non_finite_or_unsorted_data(build, size):
    x = np.linspace(0.0, 1.0, size)
    with pytest.raises(ValueError, match=f"needs at least {size} nodes, got {size - 1}"):
        build(x[:-1], x[:-1])
    y = x.copy()
    y[1] = math.nan
    message = f"needs finite data, got y=nan at x={float(x[1])!r} (1 non-finite node(s))"
    with pytest.raises(ValueError, match=re.escape(message)):
        build(x, y)
    with pytest.raises(ValueError, match="strictly increasing"):
        build(x[::-1], x)


def test_certify_commands_load_no_interpolate():
    """Every command line of the `certify` benchmark workload, through
    `cli.dispatch` in a fresh interpreter, leaves scipy.interpolate and the
    subpackages it loads out of sys.modules."""
    script = f"""
import contextlib, io, sys
sys.path[:0] = [{str(ROOT / "src")!r}, {str(ROOT / "perfbench")!r}]
import workloads
from ckn.cli import dispatch
for op in workloads.build("certify", 1):
    with contextlib.redirect_stdout(io.StringIO()):
        assert dispatch(list(op.argv)) == 0, op.argv
print(",".join(m for m in ("scipy.interpolate", "scipy.special", "scipy.optimize",
                           "scipy.spatial") if m in sys.modules))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True)
    assert proc.stdout == "\n", proc.stdout
