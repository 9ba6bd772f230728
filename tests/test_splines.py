"""The spline of a radial profile file is scipy.interpolate's, loaded only
by `shifted-weight --profile`: the commands that read no profile file load
no scipy."""
import subprocess
import sys
from pathlib import Path

import numpy as np

from ckn.grids import RadialProfile, save_profile

ROOT = Path(__file__).resolve().parents[1]


def test_certify_commands_load_no_interpolate(tmp_path):
    """Every command line of the `certify` benchmark workload, `phase` over
    an alpha range and `constants`, through `cli.dispatch` in a fresh
    interpreter, leave every scipy module out of sys.modules; a
    `shifted-weight --profile` run then loads scipy.interpolate (its
    spline) and with it scipy.linalg."""
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
print("scipy.interpolate" in sys.modules, "scipy.linalg" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True)
    assert proc.stdout == "\nTrue True\n", proc.stdout
