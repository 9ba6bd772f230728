"""The spline of `ckn.splines` against scipy.interpolate, bit for bit, on
the profiles and evaluation points ckn uses; its refusals; and that the
commands that read no profile file load no scipy."""
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import make_interp_spline

from ckn.bn_ball import _bn_nodes
from ckn.grids import RadialProfile, save_profile
from ckn.quadrature import gauss_panels
from ckn.splines import not_a_knot

ROOT = Path(__file__).resolve().parents[1]


def points(x, rng, extra):
    """The nodes, both ends and just past them, random points and `extra`."""
    span = x[-1] - x[0]
    return np.r_[x, x[0], x[-1], x[0] - 0.01 * span, x[-1] + 0.01 * span,
                 rng.uniform(x[0], x[-1], 20000), extra]


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


@pytest.mark.parametrize("build, size", [(lambda x, y: not_a_knot(x, y, 3), 4),
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


def test_certify_commands_load_no_interpolate(tmp_path):
    """Every command line of the `certify` benchmark workload, `phase` over
    an alpha range and `constants`, through `cli.dispatch` in a fresh
    interpreter, leave every scipy module out of sys.modules; a
    `shifted-weight --profile` run then loads scipy.linalg (its spline)."""
    profile = tmp_path / "bump.txt"
    r = np.linspace(0.0, 1.0, 201)
    save_profile(profile, RadialProfile(nodes=r, values=(1.0 - r**2) ** 3, n=6))
    script = f"""
import contextlib, io, sys
sys.path[:0] = [{str(ROOT / "src")!r}, {str(ROOT / "perfbench")!r}]
import workloads
from ckn.cli import dispatch
argvs = [op.argv for op in workloads.build("certify", 1)]
argvs += [("phase", "--n", "5", "--q", "3", "--alpha-range=-2,6,0.5", "--jobs", "1"),
          ("constants", "--n", "5", "--alpha", "1")]
def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert dispatch(list(argv)) == 0, argv
def scipy_modules():
    return ",".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
for argv in argvs:
    run(argv)
print(scipy_modules())
run(("shifted-weight", "--n", "6", "--a=-3", "--profile", {str(profile)!r}))
print("scipy.linalg" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True)
    assert proc.stdout == "\nTrue\n", proc.stdout
