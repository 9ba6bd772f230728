"""Command-line surface: subcommand dispatch and bit-stable CSV/JSON
emission.  Every setting is a flag.

Determinism contract: with identical flags the emitted bytes
are identical run-to-run and independent of --jobs.  Floats are
printed with %.17g (round-trip exact for doubles), CSV uses LF endings and
a `.` decimal separator, and parallel sweeps merge rows in key order.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional, Sequence, Tuple, get_type_hints

import numpy as np

from .errors import CknError, ParameterDomainError, UnconvergedResultError

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_UNCONVERGED = 2
EXIT_IO = 3


# ---------------------------------------------------------------------------
# formatting


def _fmt(x) -> str:
    """One CSV cell: %.17g floats, lowercase booleans, plain ints, and
    `nan` for a missing value."""
    if x is None:
        return "nan"
    if isinstance(x, bool) or isinstance(x, np.bool_):
        return "true" if x else "false"
    if isinstance(x, float) or isinstance(x, np.floating):
        return f"{float(x):.17g}"
    return str(x)


def _csv(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(c) for c in row))
    return "\n".join(lines) + "\n"


def _json_text(obj) -> str:
    # numpy scalars and arrays that are not float subclasses turn into
    # Python values through `tolist`
    return json.dumps(obj, indent=2, default=lambda o: o.tolist()) + "\n"


def _emit(text: str, out: Optional[str]) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    with open(out, "w", newline="") as fh:
        fh.write(text)


def _write(args, payload, header: Sequence[str],
           rows: Optional[Sequence[Sequence]] = None) -> None:
    """Emit `payload` as JSON, or `header` over `rows` as CSV; `rows`
    defaults to the one row of payload values under `header`."""
    if args.format == "csv":
        if rows is None:
            rows = [[payload[k] for k in header]]
        _emit(_csv(header, rows), args.out)
    else:
        _emit(_json_text(payload), args.out)


def _diag(msg: str) -> None:
    print(msg, file=sys.stderr)


def _fields(obj) -> dict:
    """What a report prints: the fields of the result dataclass `obj` in
    order, `lam` named `lambda`; a profile is left out (it goes only to
    --save-profile)."""
    return {("lambda" if f.name == "lam" else f.name): getattr(obj, f.name)
            for f in dataclasses.fields(obj) if f.name != "profile"}


# ---------------------------------------------------------------------------
# argument plumbing


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage failures exit 1, not argparse's default 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        _diag(f"error: {message}")
        raise SystemExit(EXIT_DOMAIN)


def _parse_grid(text: str) -> Tuple[float, int]:
    try:
        ls, ns = text.split(",")
        return float(ls), int(ns)
    except ValueError as exc:
        raise ParameterDomainError(f"--grid expects L,N, got {text!r}") from exc


def _float_list(text: str) -> List[float]:
    """The floats of a comma-separated list; a blank list is empty, and a
    blank entry in a non-blank one is refused."""
    if text.strip() == "":
        return []
    toks = text.split(",")
    if any(tok.strip() == "" for tok in toks):
        raise ParameterDomainError(f"empty entry in the float list {text!r}")
    try:
        return [float(tok) for tok in toks]
    except ValueError as exc:
        raise ParameterDomainError(f"bad float list {text!r}") from exc


def _alpha_range(text: str) -> List[float]:
    """The alphas of --alpha-range, each checked in order before any row
    runs, so the first that fails is the one named."""
    from .grids import alpha_grid
    from .params import check_alpha

    vals = _float_list(text)
    if len(vals) != 3:
        raise ParameterDomainError(f"range expects lo,hi,step, got {text!r}")
    alphas = alpha_grid(*vals)
    for a in alphas:
        check_alpha(a)
    return alphas


def _common_flags(sp: argparse.ArgumentParser, default_format: str = "json") -> None:
    sp.add_argument("--format", choices=("csv", "json"), default=default_format)
    sp.add_argument("--out", default=None, help="output file (default: stdout)")


def _grid_flag(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--grid", default=None, metavar="L,N",
                    help="line grid on [-L, L] with N nodes (default 12,2001)")


def _min_config(args) -> "MinimizationConfig":
    from .grids import LineGrid
    from .radial_solver import MinimizationConfig

    if args.grid is None:
        return MinimizationConfig()
    return MinimizationConfig(grid=LineGrid(*_parse_grid(args.grid)))


def _jobs(args) -> int:
    j = args.jobs
    if j is None:
        j = os.cpu_count() or 1
    if j < 1:
        raise ParameterDomainError(f"--jobs must be >= 1, got {j}")
    return j


def _row_or_error(worker, *task):
    """`worker(*task)`, or the exception it raised, with the warnings it
    raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            row = worker(*task)
        except Exception as exc:
            row = exc
    return row, [w.message for w in caught]


def _fan_out(worker, tasks: List[tuple], jobs: int) -> List:
    """Order-preserving `worker(*task)` over tasks, optionally across at
    most `jobs` processes, one per task and CPU at most; a task that raises
    gives its exception in place of a row.

    Rows are computed by the same picklable (module-level) worker either
    way, so output bytes do not depend on the job count.  The warnings of
    each task are raised again here, in the parent, in task order."""
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        results = [_row_or_error(worker, *t) for t in tasks]
    else:
        # about four chunks per worker: few round trips, balanced tails
        chunksize = math.ceil(len(tasks) / (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(functools.partial(_row_or_error, worker),
                                    *zip(*tasks), chunksize=chunksize))
    for _, caught in results:
        for message in caught:
            warnings.warn(message)
    return [row for row, _ in results]


def _write_sweep(args, row_type, values: Sequence[float], results: List) -> None:
    """The table of a sweep over `values`: the `_fields` of one `row_type`
    row each, the first field the swept value.

    A row that raised becomes all-NaN and unconverged (the swept value,
    then NaN floats and False bools), and one stderr line names the
    exception; the lines come in sweep order, at any --jobs."""
    hints = get_type_hints(row_type)

    def nan_row(value):
        return row_type(float(value), *(False if hints[f.name] is bool else math.nan
                                        for f in dataclasses.fields(row_type)[1:]))

    # from a row of the type, as the first result may have raised
    header = list(_fields(nan_row(math.nan)))
    table = []
    for value, row in zip(values, results):
        if isinstance(row, Exception):
            _diag(f"{args.command}: NaN row at {header[0]}={float(value)!r}: "
                  f"{type(row).__name__}: {row}")
            row = nan_row(value)
        table.append(_fields(row))
    _write(args, table, header, [list(r.values()) for r in table])


# ---------------------------------------------------------------------------
# subcommands
#
# Each subcommand is one row of `_COMMANDS` (under "parser" below): its
# help, the function that adds its flags, and its runner `_cmd_*`.  A
# dispatch builds the parser of the command it runs and no other.
#
# Each subcommand imports the ckn modules it needs when it runs, not at the
# top of this module, since a command needs only some of them.  Every
# command loads numpy.  `scipy.linalg` and `scipy.sparse` are loaded by the
# solvers of `radial-min`, `scan`, `bn` and `bn-probe`, and
# `scipy.interpolate` by the spline of `shifted-weight --profile`; no other
# command loads any part of scipy.


def _cmd_constants(args) -> int:
    from .params import derive_params, radial_closed_forms
    from .spectrum import full_sphere, half_sphere, rellich_constant

    rc_full = rellich_constant(full_sphere(args.n), args.alpha)
    rc_half = rellich_constant(half_sphere(args.n), args.alpha)
    # float flags keep every derived value a float
    payload = {**_fields(derive_params(args.n, args.alpha, args.q)),
               **_fields(radial_closed_forms(args.n, args.alpha)),
               "rellich_full_sphere": float(rc_full),
               "rellich_half_sphere": float(rc_half)}
    _write(args, payload, [k for k, v in payload.items() if v is not None])
    return EXIT_OK


def _write_solve(args, res, payload: dict) -> int:
    """The report of one solve `res`: its profile to --save-profile, the
    non-string fields of `payload`, and exit 2 if it did not converge."""
    if args.save_profile:
        from .grids import save_profile
        save_profile(args.save_profile, res.profile)
    _write(args, payload, [k for k, v in payload.items() if not isinstance(v, str)])
    if not res.converged:
        _diag(f"{args.command} did not converge (el_residual={res.el_residual:.3g})")
        return EXIT_UNCONVERGED
    return EXIT_OK


def _cmd_radial_min(args) -> int:
    from .radial_solver import minimize_mu_q

    res = minimize_mu_q(args.n, args.alpha, args.q, _min_config(args))
    return _write_solve(args, res, {"n": args.n, "alpha": args.alpha,
                                    "q": args.q, **_fields(res)})


def _scan_rows(n: int, q: float, alphas: List[float], cfg) -> List:
    """The `scan` rows of alphas that share one line problem, from one
    solve: each row, or the exception it raised."""
    from . import radial_solver

    try:
        res = radial_solver.minimize_mu_q(n, alphas[0], q, cfg)
    except Exception as exc:
        res = exc
    rows = []
    for a in alphas:
        try:
            rows.append(radial_solver.scan_row(n, q, a, res))
        except Exception as exc:
            rows.append(exc)
    return rows


def _cmd_scan(args) -> int:
    from .params import check_exponents
    from .radial_solver import ScanRow, line_data

    alphas = _alpha_range(args.alpha_range)
    # a bad (n, q) would fail every row alike
    check_exponents(args.n, args.q)
    cfg = _min_config(args)
    # one task per line problem: alpha and 4 - alpha share one when their
    # floats of gbar and gamma are equal, so both rows carry its bits
    groups = {}
    for i, a in enumerate(alphas):
        groups.setdefault(line_data(args.n, a), []).append(i)
    tasks = [(args.n, args.q, [alphas[i] for i in idx], cfg)
             for idx in groups.values()]
    rows = [None] * len(alphas)
    for idx, group in zip(groups.values(), _fan_out(_scan_rows, tasks, _jobs(args))):
        for i, row in zip(idx, group):
            rows[i] = row
    _write_sweep(args, ScanRow, alphas, rows)
    return EXIT_OK


def _cmd_phase(args) -> int:
    from .params import check_exponents
    from .phase import POSITIVITY_NOTE, phase_row
    from .spectrum import full_sphere, half_sphere

    alphas = ([args.alpha] if args.alpha_range is None
              else _alpha_range(args.alpha_range))
    model = (full_sphere if args.model == "full" else half_sphere)(args.n)
    # a bad q would fail every row alike
    if args.q is not None:
        check_exponents(args.n, args.q)
    rows = _fan_out(phase_row, [(model, a, args.q) for a in alphas], _jobs(args))
    for row in rows:
        if isinstance(row, Exception):
            raise row
    table = [_fields(row) for row in rows]
    payload = {"rows": table, "note": POSITIVITY_NOTE}
    _write(args, payload, list(table[0]), [list(r.values()) for r in table])
    return EXIT_OK


def _cmd_critical_check(args) -> int:
    from .critical import strictness_sign_check

    rep = strictness_sign_check(args.n, args.alpha)
    payload = {"n": args.n, "alpha": args.alpha, "predicate": rep["predicate"],
               "coefficient": rep["coefficient"],
               "interval": list(rep["interval"])}
    _write(args, payload, ("n", "alpha", "predicate", "coefficient",
                           "interval_lo", "interval_hi"),
           [[args.n, args.alpha, rep["predicate"], rep["coefficient"],
             *rep["interval"]]])
    return EXIT_OK


# the bubble identities pass at this worst relative error, checked at these
# a values by `talenti-verify` (by default) and by `verify --suite talenti`
TALENTI_A_VALUES = (-3.0, -2.5, 1.0, 2.0)
TALENTI_TOL = 1e-6


def _talenti_pass(rep) -> dict:
    worst = rep.worst_relerr
    return {"worst_relerr": worst, "tol": TALENTI_TOL,
            "passed": worst <= TALENTI_TOL}


def _cmd_talenti_verify(args) -> int:
    from .critical import talenti_identity_suite

    a_values = _float_list(args.a_values)
    if not a_values:
        # it would pass with no expansion checked
        raise ParameterDomainError("the list of a values is empty")
    rep = talenti_identity_suite(args.n, a_values, doubled=args.double_panels)
    payload = {**_fields(rep), **_talenti_pass(rep)}
    _write(args, payload, ("n", "I", "J", "ratio_relerr", "sstar_num",
                           "worst_relerr", "passed"))
    if not payload["passed"]:
        _diag(f"talenti-verify: worst relative error {payload['worst_relerr']:.3g}"
              f" > tol {TALENTI_TOL:g}")
        return EXIT_UNCONVERGED
    return EXIT_OK


def _cmd_shifted_weight(args) -> int:
    from .critical import shifted_weight_lemma_check
    from .grids import load_profile

    u = load_profile(args.profile) if args.profile else None
    rep = shifted_weight_lemma_check(args.n, args.a, u,
                                     t_values=_float_list(args.t_values))
    _write(args, _fields(rep), ("t", "f"), list(zip(rep.t_values, rep.f_values)))
    return EXIT_OK


def _cmd_ueps(args) -> int:
    from .critical import ueps_family

    rep = ueps_family(args.n, args.lam, _float_list(args.epsilons))
    _write(args, _fields(rep),
           ("epsilon", "ratio", "biharmonic_excess", "mass_deficit"),
           list(zip(rep.epsilons, rep.ratios, rep.biharmonic_excess,
                    rep.mass_deficits)))
    return EXIT_OK


def _bn_config(args) -> "BNConfig":
    from .bn_ball import BNConfig

    return BNConfig(n=args.n, lam=getattr(args, "lam", 0.0), N_r=args.nr)


def _cmd_bn(args) -> int:
    from .bn_ball import minimize_bn

    rep = minimize_bn(_bn_config(args))
    return _write_solve(args, rep, _fields(rep))


def _cmd_bn_probe(args) -> int:
    from .bn_ball import ProbeRow, ball_forms, dimension_probe

    cfg = _bn_config(args)
    lams = _float_list(args.lambdas)
    if not lams:
        raise ParameterDomainError("the list of lambda values is empty")
    cfgs = [dataclasses.replace(cfg, lam=lam) for lam in lams]
    jobs = _jobs(args)
    # the forms and lambda_21 depend on (n, N_r) alone: built once for every
    # row, and a failure of theirs would fail every row alike
    forms = ball_forms(cfg.n, cfg.N_r)
    rows = _fan_out(dimension_probe, [(c, forms) for c in cfgs], jobs)
    _write_sweep(args, ProbeRow, lams, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify umbrella


def _suite_talenti(args) -> Tuple[bool, dict]:
    from .critical import talenti_identity_suite

    detail = _talenti_pass(talenti_identity_suite(args.n, TALENTI_A_VALUES))
    return detail.pop("passed"), detail


def _suite_identity(args) -> Tuple[bool, dict]:
    from .grids import LineGrid
    from .operators import norm_identity_check
    from .params import derive_params

    rel_errors = norm_identity_check(derive_params(args.n, 0.0, 3.0),
                                     LineGrid(12.0, 4001))
    worst = max(rel_errors["q"], rel_errors["quad"])
    return worst <= 1e-6, {"rel_errors": rel_errors, "tol": 1e-6}


def _suite_closed_form(args) -> Tuple[bool, dict]:
    from .params import radial_closed_forms
    from .spectrum import full_sphere, half_sphere, rellich_constant

    checks = {}
    forms = radial_closed_forms(5, 0.0)
    checks["s2_rad(5,0)"] = float(forms.s2_rad)
    checks["rellich_half(5,0)"] = float(rellich_constant(half_sphere(5), 0.0))
    ok = checks["s2_rad(5,0)"] == 25 / 16 and checks["rellich_half(5,0)"] == 27.5625
    # the full-sphere constant is a squared spectral distance, so it is
    # bounded by the radial closed form on a sample of alphas; both are
    # exact values rounded once, so the bound holds in floats too
    for a in (-6.0, -1.0, 0.0, 1.0, 3.0, 7.0):
        rc = float(rellich_constant(full_sphere(args.n), a))
        s2 = float(radial_closed_forms(args.n, a).s2_rad)
        if rc > s2:
            ok = False
            checks[f"sandwich_violated_alpha={a}"] = rc
    return ok, checks


def _suite_critical(args) -> Tuple[bool, dict]:
    from .critical import strictness_sign_check

    # the checker raises if its two algebraic routes disagree
    sampled = 0
    for alpha in np.linspace(-12.0, 16.0, 57):
        strictness_sign_check(args.n, float(alpha))
        sampled += 1
    return True, {"sampled": sampled}


_SUITES = {
    "talenti": _suite_talenti,
    "identity": _suite_identity,
    "closed-form": _suite_closed_form,
    "critical": _suite_critical,
}


def _cmd_verify(args) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    results = {}
    all_ok = True
    for name in names:
        ok, detail = _SUITES[name](args)
        results[name] = {"passed": ok, **detail}
        _diag(f"verify {name}: {'PASS' if ok else 'FAIL'}")
        all_ok = all_ok and ok
    _write(args, {"passed": all_ok, "suites": results}, ("suite", "passed"),
           [[k, v["passed"]] for k, v in results.items()])
    return EXIT_OK if all_ok else EXIT_UNCONVERGED


# ---------------------------------------------------------------------------
# parser


def _constants_flags(sp) -> None:
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--q", type=float, default=2.0)
    _common_flags(sp)


def _radial_min_flags(sp) -> None:
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--q", type=float, required=True)
    sp.add_argument("--save-profile", default=None)
    _grid_flag(sp)
    _common_flags(sp)


def _scan_flags(sp) -> None:
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--q", type=float, required=True)
    sp.add_argument("--alpha-range", required=True, metavar="LO,HI,STEP")
    sp.add_argument("--jobs", type=int, default=None)
    _grid_flag(sp)
    _common_flags(sp, default_format="csv")


def _phase_flags(sp) -> None:
    sp.add_argument("--n", type=int, required=True)
    alpha = sp.add_mutually_exclusive_group(required=True)
    alpha.add_argument("--alpha", type=float, default=None)
    alpha.add_argument("--alpha-range", default=None, metavar="LO,HI,STEP")
    sp.add_argument("--q", type=float, default=None)
    sp.add_argument("--model", choices=("full", "half"), default="full")
    sp.add_argument("--jobs", type=int, default=None)
    _common_flags(sp)


def _critical_check_flags(sp) -> None:
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--alpha", type=float, required=True)
    _common_flags(sp)


def _talenti_verify_flags(sp) -> None:
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--a-values",
                    default=",".join(f"{a:g}" for a in TALENTI_A_VALUES))
    sp.add_argument("--double-panels", action="store_true")
    _common_flags(sp)


def _shifted_weight_flags(sp) -> None:
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--t-values", default="0.02,0.04,0.06,0.08,0.10")
    sp.add_argument("--profile", default=None,
                    help="radial profile file (default: (1-r^2)^3)")
    _common_flags(sp)


def _ueps_flags(sp) -> None:
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--lambda", dest="lam", type=float, default=0.0)
    sp.add_argument("--epsilons", default="0.2,0.1,0.05,0.025")
    _common_flags(sp)


def _ball_flags(sp) -> None:
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--nr", type=int, default=2001, help="radial nodes on [0, 1]")


def _bn_flags(sp) -> None:
    _ball_flags(sp)
    sp.add_argument("--lambda", dest="lam", type=float, required=True)
    sp.add_argument("--save-profile", default=None)
    _common_flags(sp)


def _bn_probe_flags(sp) -> None:
    _ball_flags(sp)
    sp.add_argument("--lambdas", required=True, metavar="L1,L2,...")
    sp.add_argument("--jobs", type=int, default=None)
    _common_flags(sp, default_format="csv")


def _verify_flags(sp) -> None:
    sp.add_argument("--suite", choices=tuple(_SUITES) + ("all",), required=True)
    sp.add_argument("--n", type=int, default=5)
    _common_flags(sp)


# name -> (help, the function that adds its flags, its runner), in the
# order the usage lists them
_COMMANDS = {
    "constants": ("closed-form exponents and constants", _constants_flags,
                  _cmd_constants),
    "radial-min": ("minimize the radial quotient", _radial_min_flags, _cmd_radial_min),
    "scan": ("alpha sweep of constants and phase flags", _scan_flags, _cmd_scan),
    "phase": ("positivity/symmetry phase indicators", _phase_flags, _cmd_phase),
    "critical-check": ("strict-improvement sign test", _critical_check_flags,
                       _cmd_critical_check),
    "talenti-verify": ("bubble identity suite", _talenti_verify_flags,
                       _cmd_talenti_verify),
    "shifted-weight": ("off-center weight comparison", _shifted_weight_flags,
                       _cmd_shifted_weight),
    "ueps": ("concentrating-family diagnostics", _ueps_flags, _cmd_ueps),
    "bn": ("perturbed critical minimization on the ball", _bn_flags, _cmd_bn),
    "bn-probe": ("sweep the perturbation strength", _bn_probe_flags, _cmd_bn_probe),
    "verify": ("umbrella verification suites", _verify_flags, _cmd_verify),
}


def build_parser(command: Optional[str] = None) -> _Parser:
    """The parser of every subcommand or, when `command` names one, of that
    one alone.  The narrow parser's usage still lists every name, so its
    usage and errors read as the full parser's; a name it lacks cannot
    reach it, as `_run` builds it only for the command it runs."""
    parser = _Parser(prog="ckn", description=__doc__.splitlines()[0])
    if command in _COMMANDS:
        names = [command]
        sub = parser.add_subparsers(dest="command", required=True,
                                    metavar="{" + ",".join(_COMMANDS) + "}")
    else:
        names = list(_COMMANDS)
        sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        help_text, add_flags, runner = _COMMANDS[name]
        sp = sub.add_parser(name, help=help_text)
        add_flags(sp)
        sp.set_defaults(run=runner)
    return parser


def dispatch(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command line and return its exit code.  Each distinct
    library warning is written once, last, as `warning: <message>`."""
    if argv is None:
        argv = sys.argv[1:]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = _run(argv)
    for message in dict.fromkeys(str(w.message) for w in caught):
        _diag(f"warning: {message}")
    return code


def _run(argv: Sequence[str]) -> int:
    # the named command's parser alone: building every subcommand's costs
    # most of an in-process dispatch of a quick command
    parser = build_parser(argv[0] if argv else None)
    try:
        if os.environ.get("CKN_CONFIG"):
            # ckn reads no config file: refuse one rather than ignore it
            raise ParameterDomainError(
                "CKN_CONFIG is set, but ckn reads no config file; "
                "pass each setting as a flag and unset CKN_CONFIG")
        args = parser.parse_args(argv)
        return args.run(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ParameterDomainError, ValueError) as exc:
        _diag(f"parameter error: {exc}")
        return EXIT_DOMAIN
    except UnconvergedResultError as exc:
        _diag(f"non-convergence: {exc}")
        return EXIT_UNCONVERGED
    except OSError as exc:
        _diag(f"i/o error: {exc}")
        return EXIT_IO
    except CknError as exc:
        _diag(f"error: {exc}")
        return EXIT_DOMAIN


def main() -> None:
    raise SystemExit(dispatch())


if __name__ == "__main__":
    main()
