"""Dump what the `ckn` CLI prints, so the outputs of two checkouts can be
compared.

    python3 tools/cli_outputs.py ROOT OUT.json

ROOT is a checkout of this repository. The script imports `ckn` from
ROOT/src and `perfbench` from ROOT, then runs in-process, through
`ckn.cli.dispatch` with stdout and stderr captured (as the benchmark runs
them):

- the CLI operations of one round (seed 1) of the `ball-sweep`,
  `radial-sweep` and `certify` workloads;
- each subcommand in JSON and in CSV, on small inputs that also reach a
  refused empty alpha range, a NaN sweep row, library warnings, alpha
  near 4e9 (sphere levels 4e9 apart, -gamma off them), alpha = 2e14 + 5
  (-gamma on a level) and 3e76, and line solves
  on a wide fine grid, on a coarse grid with a mirror pair alpha,
  4 - alpha, and on the smallest grids (N = 5 and 7), and a degenerate
  line solve next to alpha = 4 - n; `shifted-weight`
  also reads a profile that `bn` saves (geometric nodes) and a 4-node one
  (the cubic spline);
- the command lines that refuse a bad (n, q) (`phase` over an alpha range
  too), a non-finite real, an alpha whose alpha^4 overflows, a grid
  spacing h whose h^4 or h^-4 is not a finite positive float or on which
  the line form or its fold about s = 0 overflows, an input
  whose integrands overflow, a bad sample list, an epsilon below the
  quadrature's floor, a missing --alpha, a flag that no subcommand has, or
  a profile too short for its spline or with a non-finite node or value;
- the top-level paths of the parser: no command, the top-level help, an
  unknown or abbreviated command, a flag before the command, and the help
  of three subcommands (help text wraps at the terminal width, so compare
  dumps made in the same terminal);
- the library calls of one round (seed 1) of the benchmark, which no
  subcommand reaches: each `oracle` operation's oracle value and its
  solve's `mu_q`, `iterations`, `el_residual`, `status` and the SHA-256 of
  its profile's bytes, and each `consistency` operation's
  `ConsistencyReport` fields, every float as `float.hex`.

Profile files are written to a temporary directory; the command lines
name it by the placeholder TMP, as they are recorded.

OUT.json maps each command line to `[exit code, stdout, stderr]`, and each
library call, keyed by its name and parameters, to its fields; one entry
per line of the file, so `diff A.json B.json` lists the commands whose
output differs; an exception that escapes `dispatch` is recorded in
place of the exit code. Python's default warning filter shows a warning once per
process and source line, so at a checkout whose CLI leaves warnings to it,
a warning shows only in the first command that raises it."""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import sys
import tempfile

SEED = 1
CLI_WORKLOADS = ("ball-sweep", "radial-sweep", "certify")

# the radial profiles the tool writes, in the directory TMP stands for
TMP = "TMP"
_RADIAL = "# kind=radial\n# n=6\n"
PROFILE_FILES = {
    "four-nodes.txt": _RADIAL + "0 1\n0.3 0.753571\n0.6 0.262144\n1 0\n",
    "three-nodes.txt": _RADIAL + "0 1\n0.5 0.421875\n1 0\n",
    "nan.txt": _RADIAL + "0 1\n0.3 nan\n0.6 0.262144\n1 0\n",
}

SUBCOMMANDS = (
    ("constants", "--n", "5", "--alpha", "0", "--q", "3"),
    ("constants", "--n", "4", "--alpha", "2", "--q", "3"),
    ("constants", "--n", "5", "--alpha", "0", "--q", "12"),
    # alpha on the spectrum at |alpha - 2| = 2k + 3, and near the largest admitted |alpha|
    ("constants", "--n", "5", "--alpha", "200000000000005", "--q", "3"),
    ("constants", "--n", "5", "--alpha", "3e76", "--q", "3"),
    ("radial-min", "--n", "5", "--alpha", "1", "--q", "3", "--grid", "8,401"),
    ("radial-min", "--n", "5", "--alpha", "-1", "--q", "3"),
    ("radial-min", "--n", "5", "--alpha", "0.5", "--q", "3", "--grid", "24,8001"),
    # the smallest grids: the folded form's second band is empty, then one entry
    ("radial-min", "--n", "5", "--alpha", "0", "--q", "3", "--grid", "12,5"),
    ("radial-min", "--n", "5", "--alpha", "0", "--q", "3", "--grid", "12,7"),
    # gamma rounds to 0 next to alpha = 4 - n: the degenerate zero result
    ("radial-min", "--n", "5", "--alpha=-0.9999999999999999", "--q", "3",
     "--grid", "1e70,5"),
    ("scan", "--n", "5", "--q", "3", "--alpha-range", "0,1,0.5",
     "--grid", "8,401", "--jobs", "1"),
    ("scan", "--n", "5", "--q", "3", "--alpha-range", "1,0,1", "--jobs", "1"),
    ("scan", "--n", "5", "--q", "12", "--alpha-range", "0,3,1", "--jobs", "1"),
    ("scan", "--n", "5", "--q", "12", "--alpha-range", "0,3,1", "--jobs", "2"),
    ("scan", "--n", "7", "--q", "4", "--alpha-range=-2.5,6.5,4.5", "--grid", "3,11",
     "--jobs", "1"),
    ("scan", "--n", "5", "--q", "3", "--alpha-range=4000000000.5,4000000001.5,1",
     "--jobs", "1"),
    ("phase", "--n", "5", "--q", "3", "--alpha-range=-2,6,2", "--jobs", "1"),
    ("phase", "--n", "5", "--alpha", "1", "--model", "half"),
    ("critical-check", "--n", "5", "--alpha", "5"),
    ("talenti-verify", "--n", "5"),
    ("shifted-weight", "--n", "6", "--a", "-3", "--t-values", "0.02,0.05"),
    ("ueps", "--n", "5", "--epsilons", "0.2,0.1"),
    ("ueps", "--n", "6", "--lambda", "1", "--epsilons", "0.2,0.1"),
    ("bn", "--n", "6", "--lambda", "10", "--nr", "401"),
    ("bn", "--n", "5", "--lambda", "20", "--nr", "401"),
    ("bn-probe", "--n", "6", "--lambdas", "0,60", "--nr", "201", "--jobs", "1"),
    ("bn-probe", "--n", "6", "--lambdas", "0,60", "--nr", "201", "--jobs", "2"),
    ("verify", "--suite", "all", "--n", "5"),
    ("verify", "--suite", "identity", "--n", "7"),
    ("bn", "--n", "6", "--lambda", "10", "--nr", "401", "--save-profile", f"{TMP}/bn.txt"),
    ("shifted-weight", "--n", "6", "--a", "-3", "--profile", f"{TMP}/bn.txt"),
    ("shifted-weight", "--n", "6", "--a", "-3", "--profile", f"{TMP}/four-nodes.txt"),
)

# refused with exit 1: a bad (n, q), a non-finite real or overflowing alpha,
# a grid spacing out of range, an input whose integrands overflow or a bad
# sample list where it enters, an unknown or removed flag, a profile with
# fewer than 4 nodes or a non-finite value, and an empty entry in a list
REFUSALS = (
    ("scan", "--n", "5", "--q", "1", "--alpha-range", "0,1,0.5", "--jobs", "1"),
    ("scan", "--n", "5", "--q", "nan", "--alpha-range", "0,1,0.5", "--jobs", "1"),
    ("scan", "--n", "1", "--q", "3", "--alpha-range", "0,1,0.5", "--jobs", "1"),
    ("radial-min", "--n", "5", "--alpha", "1", "--q", "nan"),
    ("constants", "--n", "5", "--alpha", "0", "--q", "nan"),
    ("phase", "--n", "5", "--alpha", "1", "--q", "nan"),
    ("phase", "--n", "5", "--alpha", "1", "--q", "1"),
    ("phase", "--n", "5", "--q", "1", "--alpha-range=-2,6,2", "--jobs", "1"),
    ("ueps", "--n", "5", "--epsilons", "0.2,nan"),
    ("ueps", "--n", "5", "--lambda", "nan"),
    ("shifted-weight", "--n", "6", "--a", "nan"),
    ("shifted-weight", "--n", "6", "--a", "inf"),
    ("bn", "--n", "6", "--lambda", "nan", "--nr", "201"),
    ("bn-probe", "--n", "6", "--lambdas", "0,nan", "--nr", "201", "--jobs", "1"),
    ("radial-min", "--n", "5", "--alpha", "1", "--q", "3", "--grid", "nan,41"),
    ("radial-min", "--n", "5", "--alpha", "1", "--q", "3", "--grid", "inf,41"),
    ("constants", "--n", "5", "--alpha", "1", "--q", "inf"),
    ("scan", "--n", "5", "--q", "inf", "--alpha-range", "0,1,1", "--jobs", "1"),
    ("radial-min", "--n", "5", "--alpha", "1", "--q", "inf"),
    ("phase", "--n", "5", "--alpha", "1", "--q", "inf"),
    ("radial-min", "--n", "5", "--alpha", "1", "--q", "3", "--grid", "1e-200,5"),
    ("radial-min", "--n", "5", "--alpha", "1", "--q", "3", "--grid", "1e-100,5"),
    ("radial-min", "--n", "5", "--alpha", "1", "--q", "3", "--grid", "1e300,5"),
    ("scan", "--n", "5", "--q", "3", "--alpha-range", "0,1,1", "--grid", "1e300,5",
     "--jobs", "1"),
    ("talenti-verify", "--n", "5", "--a-values="),
    ("talenti-verify", "--n", "5", "--a-values", "nan"),
    ("talenti-verify", "--n", "5", "--a-values", "1e200"),
    ("shifted-weight", "--n", "6", "--a", "-3", "--t-values", "0.1,0.1"),
    ("constants", "--n", "5", "--alpha", "0", "--config", "x"),
    ("talenti-verify", "--n", "5", "--tol", "1e-30"),
    ("bn", "--n", "6", "--lambda", "1", "--nr", "201", "--r-min", "1e-6"),
    ("bn", "--n", "6", "--lambda", "1", "--nr", "201", "--max-iters", "0"),
    ("ueps", "--n", "6", "--epsilons", "1e-26"),
    ("talenti-verify", "--n", "5", "--a-values", "1e70"),
    ("shifted-weight", "--n", "6", "--a", "1e100"),
    ("radial-min", "--n", "5", "--alpha", "1", "--q", "3", "--grid", "2.5e-77,5"),
    ("radial-min", "--n", "5", "--alpha", "1e70", "--q", "3", "--grid", "3.84e29,5"),
    ("scan", "--n", "5", "--q", "3", "--alpha-range", "0,1,1", "--grid", "2.5e-77,5",
     "--jobs", "1"),
    ("phase", "--n", "5"),
    ("scan", "--n", "5", "--q", "3", "--alpha-range", "0,1e150,1e150", "--jobs", "1"),
    ("shifted-weight", "--n", "6", "--a", "-3", "--profile", f"{TMP}/three-nodes.txt"),
    ("shifted-weight", "--n", "6", "--a", "-3", "--profile", f"{TMP}/nan.txt"),
    ("phase", "--n", "5", "--q", "3", "--alpha-range=0,,1,0.5", "--jobs", "1"),
    ("ueps", "--n", "5", "--epsilons", "0.2,,0.1"),
    ("bn-probe", "--n", "6", "--lambdas", "0,,1", "--nr", "201", "--jobs", "1"),
)

# the parser's own paths: usage and help, exit 0 or 1
USAGE = (
    (),
    ("--help",),
    ("-h", "scan"),
    ("frobnicate",),
    ("cons",),
    ("--format", "csv", "constants", "--n", "5", "--alpha", "0"),
    ("scan", "--help"),
    ("verify", "--help"),
    ("bn-probe", "--help"),
)


def command_lines(workloads):
    """The argv of every operation to run, in order."""
    argvs = [op.argv for name in CLI_WORKLOADS
             for op in workloads.build(name, SEED) if op.argv]
    argvs += [cmd + ("--format", fmt) for cmd in SUBCOMMANDS
              for fmt in ("json", "csv")]
    argvs += list(REFUSALS)
    argvs += list(USAGE)
    return argvs


def run(dispatch, argv, tmp):
    out, err = io.StringIO(), io.StringIO()
    argv = [a.replace(f"{TMP}/", f"{tmp}/") for a in argv]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = dispatch(argv)
        except Exception as exc:  # what the command line shows as a traceback
            rc = f"uncaught {type(exc).__name__}: {exc}"
    return [rc, out.getvalue(), err.getvalue()]


def _hex(value):
    """A float as `float.hex`, a tuple as a list of the same, the rest as is."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return [_hex(v) for v in value]
    return value


def library_calls(workloads):
    """The fields of each library call of the benchmark, keyed by its call
    and parameters; a call that raises is recorded by its exception."""
    dump = {}
    for op in (op for name in workloads.WORKLOADS
               for op in workloads.build(name, SEED) if op.call):
        key = f"{op.call} {op.params}"
        try:
            out = workloads.execute(op)
        except Exception as exc:
            dump[key] = f"uncaught {type(exc).__name__}: {exc}"
            continue
        if op.call == "oracle":
            oracle, res = out
            digest = hashlib.sha256(res.profile.values.tobytes()).hexdigest()
            fields = {"oracle": oracle, "mu_q": res.mu_q, "iterations": res.iterations,
                      "el_residual": res.el_residual, "status": res.status,
                      "profile_sha256": digest}
        else:
            fields = dataclasses.asdict(out)
        dump[key] = {k: _hex(v) for k, v in fields.items()}
    return dump


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    root, out_path = os.path.abspath(args[0]), args[1]
    sys.path[:0] = [os.path.join(root, "src"), root]
    from ckn.cli import dispatch
    from perfbench import workloads

    with tempfile.TemporaryDirectory() as tmp:
        for name, text in PROFILE_FILES.items():
            with open(os.path.join(tmp, name), "w") as fh:
                fh.write(text)
        dump = {" ".join(a): run(dispatch, a, tmp) for a in command_lines(workloads)}
    dump.update(library_calls(workloads))
    with open(out_path, "w") as fh:
        fh.write("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                                    for k, v in dump.items()) + "\n}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
