"""The four workloads: the operations of one round, built from the seed, and
how each operation is run against ckn.

An operation is either a `ckn` command line, run in-process through
`ckn.cli.dispatch` with its stdout and stderr captured, or a library call
that no subcommand reaches. Every round of a workload runs the same
operations, so the counts of a round repeat exactly.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import math
import random
from dataclasses import dataclass
from typing import Tuple

WORKLOADS = ("ball-sweep", "radial-sweep", "certify", "oracle")

# radial-sweep fans out to this many workers; it equals nproc on the
# reference machine and is what `--jobs` defaults to there
JOBS = 2

# the modules each workload touches; importing them is its set-up
MODULES = {
    "ball-sweep": ("ckn.cli", "ckn.bn_ball"),
    "radial-sweep": ("ckn.cli", "ckn.radial_solver", "ckn.phase", "ckn.spectrum"),
    "certify": ("ckn.cli", "ckn.critical", "ckn.operators", "ckn.spectrum"),
    "oracle": ("ckn.radial_solver",),
}

# fixed lambda grids; they hold the rows of the known fault
BALL_LAMBDAS = {
    5: (0.0, 2.0, 5.0, 10.0, 20.0, 30.0),
    6: (0.0, 1.0, 2.0, 10.0, 20.0),
    7: (0.0, 1.0, 5.0, 10.0, 20.0),
}

# (n, q, lo, hi, step) of the scans; every range is symmetric about
# alpha = 2, so each alpha has its mirror 4 - alpha on the same grid
SCANS = (
    (5, 10.0, -10.0, 14.0, 0.125),  # far regime: certified broken symmetry
    (5, 3.0, -8.0, 12.0, 0.125),
    (6, 2.5, -8.0, 12.0, 0.125),
    (7, 4.0, -8.0, 12.0, 0.05),  # non-dyadic alphas
    (8, 3.0, -6.0, 10.0, 0.0625),
)
PHASE = (5, 3.0, -20.0, 24.0, 0.01)
CONSISTENCY_POINTS = ((5, 0.0, 3.0), (6, 1.0, 2.5), (7, -1.0, 3.0))

ORACLE_POINTS = ((5, 0.0, 3.0), (7, -1.0, 2.5))
ORACLE_GRID = (12.0, 41)


@dataclass(frozen=True)
class Op:
    """One operation: `check` names its output check in `checks.CHECKS`,
    `params` are the inputs that check needs, and the operation is either
    the CLI command `argv` or the library call `call`."""

    check: str
    params: tuple
    argv: Tuple[str, ...] = ()
    call: str = ""


def _num(x: float) -> str:
    return repr(float(x))


def _ball_sweep(seed: int):
    return [
        Op("bn-probe", (n, lams),
           argv=("bn-probe", "--n", str(n), "--lambdas",
                 ",".join(_num(x) for x in lams), "--jobs", "1"))
        for n, lams in BALL_LAMBDAS.items()
    ]


def _shift(rng: random.Random, step: float) -> float:
    """k half-steps, k in 0..7, so the grid stays symmetric about alpha = 2.
    A step that is not a power of two gets an odd k: its alphas are then
    odd multiples of step/2 and none lands within rounding of an integer,
    where ckn fails on the degenerate exponents n and 4 - n."""
    if math.frexp(step)[0] == 0.5:
        return rng.randrange(8) * step / 2.0
    return (2 * rng.randrange(4) + 1) * step / 2.0


def _radial_sweep(seed: int):
    rng = random.Random(seed)
    ops = []
    for n, q, lo, hi, step in SCANS:
        shift = _shift(rng, step)
        ops.append(Op("scan", (n, q),
                      argv=("scan", "--n", str(n), "--q", _num(q),
                            f"--alpha-range={_num(lo + shift)},{_num(hi + shift)},{_num(step)}",
                            "--jobs", str(JOBS))))
    n, q, lo, hi, step = PHASE
    shift = _shift(rng, step)
    ops.append(Op("phase", (n, q),
                  argv=("phase", "--n", str(n), "--q", _num(q),
                        f"--alpha-range={_num(lo + shift)},{_num(hi + shift)},{_num(step)}",
                        "--format", "csv", "--jobs", str(JOBS))))
    ops += [Op("consistency", p, call="consistency") for p in CONSISTENCY_POINTS]
    return ops


def _certify(seed: int):
    ops = []
    for n in (5, 6, 7, 8):
        ops.append(Op("verify", (n,), argv=("verify", "--suite", "all", "--n", str(n))))
        ops.append(Op("talenti", (n, False), argv=("talenti-verify", "--n", str(n))))
        ops.append(Op("talenti", (n, True),
                      argv=("talenti-verify", "--n", str(n), "--double-panels")))
    for n in (5, 6, 7):
        ops.append(Op("ueps", (n,), argv=("ueps", "--n", str(n), "--lambda", "1")))
    for n, a in ((5, 1.0), (6, -3.0), (7, -3.0)):
        ops.append(Op("shifted-weight", (n, a),
                      argv=("shifted-weight", "--n", str(n), f"--a={_num(a)}")))
    for n in (5, 6, 7, 8):
        for alpha in (-1.0, 0.5, 5.0, 7.5):
            ops.append(Op("critical-check", (n, alpha),
                          argv=("critical-check", "--n", str(n), f"--alpha={_num(alpha)}")))
    return ops


def _oracle(seed: int):
    return [Op("oracle", p, call="oracle") for p in ORACLE_POINTS]


_BUILDERS = {
    "ball-sweep": _ball_sweep,
    "radial-sweep": _radial_sweep,
    "certify": _certify,
    "oracle": _oracle,
}


def build(name: str, seed: int):
    """The operations of one round of workload `name`."""
    return _BUILDERS[name](seed)


def inline(ops):
    """The same operations with every fan-out replaced by `--jobs 1`."""
    out = []
    for op in ops:
        argv = list(op.argv)
        if "--jobs" in argv:
            argv[argv.index("--jobs") + 1] = "1"
        out.append(Op(op.check, op.params, tuple(argv), op.call))
    return out


def fans_out(ops) -> bool:
    return any("--jobs" in op.argv and op.argv[op.argv.index("--jobs") + 1] != "1"
               for op in ops)


def load(name: str) -> None:
    """Import every module workload `name` uses (its set-up)."""
    for mod in MODULES[name]:
        importlib.import_module(mod)


@dataclass(frozen=True)
class CliOutput:
    rc: int
    stdout: str
    stderr: str


def execute(op: Op):
    """Run one operation. CLI operations give a `CliOutput`; library calls
    give the library's result objects. Module attributes are looked up at
    call time, so the traced run's wrappers see every call."""
    if op.argv:
        from ckn import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.dispatch(list(op.argv))
        return CliOutput(rc, out.getvalue(), err.getvalue())
    from ckn import radial_solver

    if op.call == "consistency":
        n, alpha, q = op.params
        return radial_solver.consistency_suite(n, alpha, q, radial_solver.MinimizationConfig())
    if op.call == "oracle":
        from ckn.grids import LineGrid

        n, alpha, q = op.params
        grid = LineGrid(*ORACLE_GRID)
        oracle = radial_solver.brute_force_oracle(n, alpha, q, grid)
        res = radial_solver.minimize_mu_q(n, alpha, q,
                                          radial_solver.MinimizationConfig(grid=grid))
        return oracle, res
    raise ValueError(f"unknown operation {op}")
