"""CLI dispatch: exit codes, output formats, refusals, and byte-stable
parallel sweeps."""
import argparse
import dataclasses
import json
import math

import pytest

from ckn.cli import (_COMMANDS, EXIT_DOMAIN, EXIT_IO, EXIT_OK, EXIT_UNCONVERGED,
                     build_parser, dispatch)

SCAN_HEADER = ("alpha,mu_q,s_q_rad,s2_rad,rellich,sq_positive,"
               "bs_closed_form,bs_certificate,converged")


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_constants_json(capsys):
    code, out, _ = run(capsys, "constants", "--n", "5", "--alpha", "0",
                       "--q", "3", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["beta"] == 3.5
    assert payload["gamma"] == 1.25
    assert payload["s2_rad"] == 1.5625


def test_radial_min_degenerate_boundary(capsys):
    # alpha = 4 - n, and alpha = nextafter(-1, 0), where gamma rounds to 0,
    # even on a grid whose folded form the banded Cholesky cannot factor
    for argv in (("--alpha", "-1"),
                 ("--alpha=-0.9999999999999999", "--grid", "1e70,5")):
        code, out, err = run(capsys, "radial-min", "--n", "5", "--q", "3", *argv)
        assert (code, err) == (EXIT_OK, "")
        payload = json.loads(out)
        assert payload["degenerate"] is True
        assert payload["mu_q"] == 0.0


def test_unknown_subcommand_exits_1(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == EXIT_DOMAIN
    assert "usage" in err


def _subparsers(parser):
    """The subcommand name -> parser map of `parser`."""
    (action,) = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


@pytest.mark.parametrize("name", list(_COMMANDS))
def test_a_named_command_builds_only_its_own_subparser(name):
    full, narrow = build_parser(), build_parser(name)
    assert list(_subparsers(full)) == list(_COMMANDS)
    assert list(_subparsers(narrow)) == [name]
    mine, theirs = _subparsers(narrow)[name], _subparsers(full)[name]
    assert mine.format_help() == theirs.format_help()
    assert mine.format_usage() == theirs.format_usage()
    # the usage of "unrecognized arguments" lists every command
    assert narrow.format_usage() == full.format_usage()
    assert "{" + ",".join(_COMMANDS) + "}" in narrow.format_usage()


@pytest.mark.parametrize("argv", [["frobnicate"], ["cons"], ["--n", "5", "constants"]])
def test_an_unknown_command_prints_the_usage_of_every_command(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err.startswith(build_parser().format_usage())
    assert "{" + ",".join(_COMMANDS) + "}" in err
    assert "argument command: invalid choice" in err


def test_unknown_flag_exits_1(capsys):
    code, _, _ = run(capsys, "constants", "--n", "5", "--alpha", "0",
                     "--frob", "1")
    assert code == EXIT_DOMAIN


def test_domain_error_exits_1(capsys):
    code, _, err = run(capsys, "critical-check", "--n", "4", "--alpha", "5")
    assert code == EXIT_DOMAIN
    assert "error" in err


def test_io_error_exits_3(capsys):
    code, _, err = run(capsys, "constants", "--n", "5", "--alpha", "0",
                       "--out", "/nonexistent/dir/x.json")
    assert code == EXIT_IO


def test_scan_csv_shape(capsys):
    code, out, _ = run(capsys, "scan", "--n", "5", "--q", "3",
                       "--alpha-range", "0,1,0.5", "--jobs", "1")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == SCAN_HEADER
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[3]) == 1.5625  # s2_rad round-trips exactly via %.17g


def test_scan_byte_identical_across_jobs(tmp_path):
    """Acceptance-style determinism: output independent of the worker count."""
    out1, out3 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["scan", "--n", "5", "--q", "3", "--alpha-range", "0,2,0.5"]
    assert dispatch(args + ["--jobs", "1", "--out", str(out1)]) == EXIT_OK
    assert dispatch(args + ["--jobs", "3", "--out", str(out3)]) == EXIT_OK
    assert out1.read_bytes() == out3.read_bytes()
    assert b"\r" not in out1.read_bytes()  # LF only


def test_scan_repeat_runs_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["scan", "--n", "5", "--q", "3", "--alpha-range", "0,1,1"]
    dispatch(args + ["--out", str(a)])
    dispatch(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_phase_range_csv(capsys):
    code, out, _ = run(capsys, "phase", "--n", "5", "--alpha-range=-2,6,2",
                       "--q", "3", "--format", "csv", "--jobs", "1")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0].startswith("alpha,gamma_alpha,break_pos")
    assert len(lines) == 6


def test_critical_check_json(capsys):
    code, out, _ = run(capsys, "critical-check", "--n", "5", "--alpha", "5")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["predicate"] is True
    assert payload["interval"][1] == pytest.approx(13.0**0.5, rel=1e-15)


def test_verify_closed_form_suite(capsys):
    code, out, err = run(capsys, "verify", "--suite", "closed-form", "--n", "5")
    assert code == EXIT_OK
    assert json.loads(out)["passed"] is True
    assert "PASS" in err


def test_shifted_weight_default_profile(capsys):
    code, out, _ = run(capsys, "shifted-weight", "--n", "6", "--a", "-3",
                       "--t-values", "0.02,0.05")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["C_a"] == 2.0
    assert payload["inequality_ok"] is True


def test_talenti_verify_exit_semantics(capsys, monkeypatch):
    import ckn.cli

    code, out, _ = run(capsys, "talenti-verify", "--n", "5")
    assert code == EXIT_OK
    assert json.loads(out)["passed"] is True
    # an absurd tolerance cannot be met
    monkeypatch.setattr(ckn.cli, "TALENTI_TOL", 1e-30)
    code, out, err = run(capsys, "talenti-verify", "--n", "5")
    assert code == EXIT_UNCONVERGED
    assert json.loads(out)["tol"] == 1e-30
    assert err.startswith("talenti-verify: worst relative error ")


def test_constants_alpha_within_rounding_of_n(capsys):
    code, out, err = run(capsys, "constants", "--n", "7", "--alpha",
                         "7.000000000000001")
    assert code == EXIT_OK, err
    assert json.loads(out)["s2_rad"] < 1e-25


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf", "1e100"])
@pytest.mark.parametrize("argv", [
    ("constants", "--n", "5"),
    ("phase", "--n", "5"),
    ("critical-check", "--n", "5"),
    ("radial-min", "--n", "5", "--q", "3"),
])
def test_alpha_must_be_finite(capsys, argv, alpha):
    """A non-finite alpha, or one whose gamma_alpha^2 overflows, is refused
    with one line, before any spectrum or solver sees it."""
    code, out, err = run(capsys, *argv, f"--alpha={alpha}")
    assert code == EXIT_DOMAIN
    assert err == (f"parameter error: alpha={float(alpha)!r} must be finite "
                   "with alpha^4 below the float maximum\n")
    assert out == ""


def test_constants_at_alpha_1e12(capsys):
    from ckn.spectrum import full_sphere, half_sphere, rellich_constant

    code, out, err = run(capsys, "constants", "--n", "5", "--alpha", "1e12")
    assert code == EXIT_OK, err
    payload = json.loads(out)
    assert payload["rellich_full_sphere"] == rellich_constant(full_sphere(5), 1e12)
    assert payload["rellich_half_sphere"] == rellich_constant(half_sphere(5), 1e12)


def test_phase_needs_alpha_or_alpha_range(capsys):
    code, out, err = run(capsys, "phase", "--n", "5")
    assert code == EXIT_DOMAIN
    assert "one of the arguments --alpha --alpha-range is required" in err
    assert out == ""


def test_phase_alpha_and_alpha_range_exclude_each_other(capsys):
    code, out, err = run(capsys, "phase", "--n", "5", "--alpha", "1",
                         "--alpha-range=0,1,1")
    assert code == EXIT_DOMAIN
    assert "not allowed with argument" in err
    assert out == ""


def test_consistency_failure_exits_1(capsys, monkeypatch):
    import ckn.phase

    predicates = ckn.phase.positivity_predicates

    def wrong(model, alpha):
        preds = predicates(model, alpha)
        return dataclasses.replace(preds, break_pos=not preds.break_pos)

    monkeypatch.setattr(ckn.phase, "positivity_predicates", wrong)
    code, out, err = run(capsys, "phase", "--n", "5", "--alpha", "10",
                         "--jobs", "1")
    assert code == EXIT_DOMAIN
    assert "error:" in err
    assert out == ""


@pytest.mark.parametrize("q", ["1", "nan"])
def test_phase_refuses_a_bad_q_before_any_row(capsys, monkeypatch, q):
    import ckn.phase

    calls = []
    row = ckn.phase.phase_row

    def counting(*task):
        calls.append(task)
        return row(*task)

    monkeypatch.setattr(ckn.phase, "phase_row", counting)
    code, out, err = run(capsys, "phase", "--n", "5", "--q", q,
                         "--alpha-range=-20,24,0.01", "--jobs", "1")
    assert (code, calls, out) == (EXIT_DOMAIN, [], "")
    assert len(err.splitlines()) == 1 and err.startswith("parameter error: ")


@pytest.mark.parametrize("bad", ["0,inf,1", "-inf,0,1", "0,nan,1", "0,1,inf", "0,1,0"])
@pytest.mark.parametrize("command", ["phase", "scan"])
def test_alpha_range_must_be_finite(capsys, command, bad):
    code, out, err = run(capsys, command, "--n", "5", "--q", "3",
                         f"--alpha-range={bad}", "--jobs", "1")
    assert code == EXIT_DOMAIN
    assert "parameter error" in err
    assert out == ""


@pytest.mark.parametrize("command", ["phase", "scan"])
def test_alpha_range_names_its_first_overflowing_alpha(capsys, command):
    # 1e150, 2e150 and 3e150 all have an alpha^4 that overflows
    code, out, err = run(capsys, command, "--n", "5", "--q", "3",
                         "--alpha-range", "0,3e150,1e150", "--jobs", "1")
    assert code == EXIT_DOMAIN
    assert err == ("parameter error: alpha=1e+150 must be finite with alpha^4 "
                   "below the float maximum\n")
    assert out == ""


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", ["phase", "scan"])
def test_alpha_range_must_not_be_empty(capsys, command, fmt):
    code, out, err = run(capsys, command, "--n", "5", "--q", "3",
                         "--alpha-range", "1,0,1", "--format", fmt, "--jobs", "1")
    assert code == EXIT_DOMAIN
    assert err == "parameter error: the alpha range is empty: hi=0.0 < lo=1.0\n"
    assert out == ""


@pytest.mark.parametrize("argv", [
    ("phase", "--n", "5", "--alpha=1", "--seed", "3", "--grid", "1,5"),
    ("phase", "--n", "5", "--alpha=1", "--seed", "3"),
    ("constants", "--n", "5", "--alpha", "0", "--seed", "3"),
    ("constants", "--n", "5", "--alpha", "0", "--grid", "12,101"),
    ("radial-min", "--n", "5", "--alpha", "1", "--q", "3", "--seed", "3"),
    ("critical-check", "--n", "5", "--alpha", "5", "--grid", "12,101"),
    ("ueps", "--n", "5", "--seed", "3"),
    ("bn-probe", "--n", "5", "--lambdas", "0", "--seed", "3"),
    ("verify", "--suite", "critical", "--grid", "12,101"),
    ("scan", "--n", "5", "--q", "3", "--alpha-range", "0,1,1", "--seed", "3"),
    ("constants", "--n", "5", "--alpha", "0", "--config", "x"),
    ("bn", "--n", "6", "--lambda", "1", "--r-min", "1e-6"),
    ("bn-probe", "--n", "6", "--lambdas", "1", "--r-min", "1e-6"),
    ("talenti-verify", "--n", "5", "--tol", "1e-6"),
    ("bn", "--n", "6", "--lambda", "1", "--nr", "201", "--max-iters", "0"),
    ("bn-probe", "--n", "6", "--lambdas", "1", "--nr", "201", "--max-iters", "-5",
     "--jobs", "1"),
])
def test_flags_without_effect_are_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_DOMAIN
    assert "unrecognized arguments" in err
    assert out == ""


def test_radial_min_accepts_grid(capsys):
    code, out, _ = run(capsys, "radial-min", "--n", "5", "--alpha", "1",
                       "--q", "3", "--grid", "8,401")
    assert code == EXIT_OK
    assert json.loads(out)["converged"] is True


def test_phase_byte_identical_across_jobs(tmp_path):
    """About 100 rows, so the pool hands out chunks of several tasks."""
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["phase", "--n", "5", "--q", "3", "--alpha-range=-20,24,0.44",
            "--format", "csv"]
    assert dispatch(args + ["--jobs", "1", "--out", str(out1)]) == EXIT_OK
    assert dispatch(args + ["--jobs", "2", "--out", str(out2)]) == EXIT_OK
    assert len(out1.read_text().splitlines()) == 102
    assert out1.read_bytes() == out2.read_bytes()


def test_fan_out_caps_its_workers_at_the_cpu_count(capsys, monkeypatch):
    """--jobs 5000 over 4,401 rows asks a 3-CPU machine for 3 workers and
    about four chunks each; no process is started here."""
    import ckn.cli

    started = []

    class Pool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize):
            started.append(chunksize)
            return map(fn, *iterables)

    monkeypatch.setattr(ckn.cli, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(ckn.cli.os, "cpu_count", lambda: 3)
    argv = ["phase", "--n", "5", "--q", "3", "--alpha-range=-20,24,0.01", "--format", "csv"]
    serial = run(capsys, *argv, "--jobs", "1")
    assert started == []
    assert run(capsys, *argv, "--jobs", "5000") == serial
    assert started == [3, math.ceil(4401 / 12)]


def test_radial_min_reports_status(capsys):
    code, out, _ = run(capsys, "radial-min", "--n", "5", "--alpha", "0",
                       "--q", "3")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["status"] == "residual"
    assert payload["converged"] is True
    code, out, _ = run(capsys, "radial-min", "--n", "5", "--alpha", "0",
                       "--q", "3", "--format", "csv")
    assert out.splitlines()[0] == ("n,alpha,q,mu_q,s_q_rad,iterations,"
                                   "el_residual,converged,degenerate")


def test_bn_reports_stall_counted_as_converged(capsys):
    """A known fault, pinned: at n = 5, lambda = 2 the minimization stalls
    at a residual floor below 1e-3 and is reported converged."""
    code, out, _ = run(capsys, "bn", "--n", "5", "--lambda", "2")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["converged"] is True
    assert payload["status"] == "stalled"
    code, out, _ = run(capsys, "bn", "--n", "5", "--lambda", "2",
                       "--format", "csv")
    assert "status" not in out.splitlines()[0]


def test_bn_reports_no_identity_residual_at_sstar(capsys):
    """At n = 5, lambda = 2 the value sits at S** (not attained), so no
    Pohozaev residual is reported; the stall still counts as converged."""
    code, out, _ = run(capsys, "bn", "--n", "5", "--lambda", "2")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["attained_evidence"] == "flat-at-sstar"
    assert math.isnan(payload["pohozaev_A_residual"])
    assert payload["r3_residual"] is None
    assert payload["converged"] is True
    assert payload["status"] == "stalled"


def test_stab_setting_is_gone(capsys):
    code, out, err = run(capsys, "bn", "--n", "6", "--lambda", "10",
                         "--stab", "1")
    assert code == EXIT_DOMAIN
    assert "unrecognized arguments" in err and out == ""


def test_config_file_setting_is_refused(capsys, monkeypatch, tmp_path):
    """ckn reads no config file, so a set CKN_CONFIG fails loudly rather
    than leave its values silently unused."""
    cfg = tmp_path / "ckn.cfg"
    cfg.write_text("q = 4\n")
    monkeypatch.setenv("CKN_CONFIG", str(cfg))
    code, out, err = run(capsys, "constants", "--n", "5", "--alpha", "0")
    assert code == EXIT_DOMAIN
    assert len(err.splitlines()) == 1 and err.startswith("parameter error: ")
    assert "CKN_CONFIG" in err
    assert out == ""


def test_scan_at_q2_reports_converged_rows(capsys):
    code, out, _ = run(capsys, "scan", "--n", "5", "--q", "2",
                       "--alpha-range", "0,1,1", "--jobs", "1")
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [r[-1] for r in rows] == ["true", "true"]
    # 2e-8 above the form's lowest eigenvalue 1.67405615674 (the kernel's rounding)
    assert rows[0][1] == "1.674056190400232"
    assert [r[-2] for r in rows] == ["false", "false"]
    code, out, _ = run(capsys, "radial-min", "--n", "5", "--alpha", "0", "--q", "2",
                       "--format", "csv")
    assert code == EXIT_OK
    header, row = (line.split(",") for line in out.splitlines())
    assert dict(zip(header, row))["mu_q"] == rows[0][1]


def test_bn_csv_writes_missing_residual_as_nan(capsys):
    """(6, 10) reports no r3 residual: JSON null, CSV nan."""
    code, out, _ = run(capsys, "bn", "--n", "6", "--lambda", "10", "--nr", "401",
                       "--format", "csv")
    assert code == EXIT_OK
    header, row = out.splitlines()
    for key, cell in zip(header.split(","), row.split(",")):
        if key == "converged":
            assert cell == "true"
        else:
            float(cell)
    assert row.endswith(",nan")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_scan_nan_row_names_its_error(capsys, monkeypatch, jobs):
    """The parent writes the lines, so pool workers (forked, and so
    patched too) lose none of them."""
    import ckn.radial_solver

    def fail(n, alpha, q, cfg):
        raise RuntimeError("solver exploded")

    monkeypatch.setattr(ckn.radial_solver, "minimize_mu_q", fail)
    code, out, err = run(capsys, "scan", "--n", "5", "--q", "3",
                         "--alpha-range", "0,0.5,0.5", "--jobs", jobs)
    assert code == EXIT_OK
    assert out.splitlines()[1:] == [
        f"{a},nan,nan,nan,nan,false,false,false,false" for a in ("0", "0.5")]
    assert err.splitlines() == [
        f"scan: NaN row at alpha={a}: RuntimeError: solver exploded"
        for a in ("0.0", "0.5")]


def _logging_solver(monkeypatch, log, solve):
    """Patch `minimize_mu_q` to append each call's alpha to the file `log`
    (pool workers are forked, so their calls land there too), then run
    `solve`."""
    import ckn.radial_solver

    def logged(n, alpha, q, cfg):
        with open(log, "a") as fh:
            fh.write(f"{alpha!r}\n")
        return solve(n, alpha, q, cfg)

    monkeypatch.setattr(ckn.radial_solver, "minimize_mu_q", logged)

    def calls():
        return [float(line) for line in log.read_text().splitlines()]
    return calls


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_scan_solves_each_line_problem_once(capsys, monkeypatch, tmp_path, jobs):
    """On a grid symmetric about alpha = 2, each alpha and 4 - alpha share
    one solve (-1 and 5 share the zero form at n = 5), and every row has
    the bits of its own `scan_row`; nothing outlives one scan."""
    from ckn.cli import _csv, _fields
    from ckn.grids import LineGrid
    from ckn.radial_solver import (MinimizationConfig, line_data, minimize_mu_q,
                                   scan_row)

    alphas = [-1.0 + 0.5 * k for k in range(13)]
    cfg = MinimizationConfig(grid=LineGrid(8.0, 401))
    expected = _csv(SCAN_HEADER.split(","),
                    [list(_fields(scan_row(5, 3.0, a, minimize_mu_q(5, a, 3.0, cfg))).values())
                     for a in alphas])
    calls = _logging_solver(monkeypatch, tmp_path / "calls.txt", minimize_mu_q)
    argv = ("scan", "--n", "5", "--q", "3", "--alpha-range=-1,5,0.5",
            "--grid", "8,401", "--jobs", jobs)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK and err == ""
    assert out == expected
    solved = [line_data(5, a) for a in calls()]
    assert len(solved) == len(set(solved)) == 7
    assert set(solved) == {line_data(5, a) for a in alphas}
    code, again, _ = run(capsys, *argv)
    assert code == EXIT_OK and again == expected
    assert len(calls()) == 2 * 7


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_scan_mirror_pair_gets_a_nan_row_each(capsys, monkeypatch, tmp_path, jobs):
    """alpha = -0.5 and 4.5 share one failing solve, yet each gets its own
    NaN row and stderr line, in sweep order."""
    def fail(n, alpha, q, cfg):
        raise RuntimeError("solver exploded")

    calls = _logging_solver(monkeypatch, tmp_path / "calls.txt", fail)
    code, out, err = run(capsys, "scan", "--n", "5", "--q", "3",
                         "--alpha-range=-0.5,4.5,5", "--jobs", jobs)
    assert code == EXIT_OK
    assert calls() == [-0.5]
    assert out.splitlines()[1:] == [
        f"{a},nan,nan,nan,nan,false,false,false,false" for a in ("-0.5", "4.5")]
    assert err.splitlines() == [
        f"scan: NaN row at alpha={a}: RuntimeError: solver exploded"
        for a in ("-0.5", "4.5")]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_bn_probe_nan_row_names_its_error(capsys, jobs):
    code, out, err = run(capsys, "bn-probe", "--n", "6", "--lambdas", "0,60",
                         "--nr", "201", "--jobs", jobs)
    assert code == EXIT_OK
    assert out.splitlines()[1].startswith("0,")
    assert out.splitlines()[2] == "60,nan,nan,false,nan,false"
    assert err.startswith("bn-probe: NaN row at lambda=60.0: ParameterDomainError: ")
    assert len(err.splitlines()) == 1


def test_shifted_weight_refuses_a_line_profile(capsys, tmp_path):
    path = tmp_path / "line.txt"
    code, _, _ = run(capsys, "radial-min", "--n", "5", "--alpha", "1", "--q", "3",
                     "--grid", "8,401", "--save-profile", str(path))
    assert code == EXIT_OK
    code, out, err = run(capsys, "shifted-weight", "--n", "5", "--a", "1",
                         "--profile", str(path))
    assert code == EXIT_DOMAIN
    assert err == ("parameter error: need a radial profile (kind=radial), "
                   "got kind='line'\n")
    assert out == ""


@pytest.mark.parametrize("rows, message", [
    ("0 1\n1 0\n", "the spline needs at least 4 nodes, got 2"),
    ("0 1\n0.5 0.421875\n1 0\n", "the spline needs at least 4 nodes, got 3"),
    ("0 1\n0.3 nan\n0.6 0.262144\n1 0\n", "radial profile nodes and values must "
     "be finite, got u=nan at r=0.3 (1 non-finite node(s))"),
    ("0 1\n0.3 inf\n0.6 0.262144\n0.8 nan\n1 0\n", "radial profile nodes and "
     "values must be finite, got u=inf at r=0.3 (2 non-finite node(s))"),
    # not zero at r = 1: the NaN is named, not the boundary value
    ("0 1\n0.3 nan\n0.6 0.5\n1 0.4\n", "radial profile nodes and values must "
     "be finite, got u=nan at r=0.3 (1 non-finite node(s))"),
    ("0 1\nnan 0.7\n0.6 0.5\n1 0\n", "radial profile nodes and values must "
     "be finite, got u=0.7 at r=nan (1 non-finite node(s))"),
    ("0 1\n0.6 0.262144\n0.3 0.753571\n1 0\n", "radial nodes must be strictly "
     "increasing"),
])
def test_shifted_weight_refuses_a_short_or_non_finite_profile(capsys, tmp_path,
                                                              rows, message):
    path = tmp_path / "radial.txt"
    path.write_text("# kind=radial\n# n=6\n" + rows)
    code, out, err = run(capsys, "shifted-weight", "--n", "6", "--a", "-3",
                         "--profile", str(path))
    assert code == EXIT_DOMAIN
    assert err == f"parameter error: {message}\n"
    assert out == ""
    path.write_text("# kind=radial\n# n=6\n0 1\n0.3 0.753571\n0.6 0.262144\n1 0\n")
    code, out, err = run(capsys, "shifted-weight", "--n", "6", "--a", "-3",
                         "--profile", str(path))
    assert code == EXIT_OK, err


def test_ueps_refuses_empty_epsilons(capsys):
    code, out, err = run(capsys, "ueps", "--n", "5", "--epsilons", "")
    assert code == EXIT_DOMAIN
    assert err == "parameter error: the list of epsilon values is empty\n"
    assert out == ""


@pytest.mark.parametrize("t_values", ["", "0.05", "0,0.05", "0.1,0.1", "0,0.1,0.1"])
def test_shifted_weight_refuses_fewer_than_two_positive_t(capsys, t_values):
    code, out, err = run(capsys, "shifted-weight", "--n", "6", "--a", "-3",
                         f"--t-values={t_values}")
    assert code == EXIT_DOMAIN
    assert err == ("parameter error: the t, t^2 fit needs at least two distinct "
                   "t values > 0\n")
    assert out == ""


@pytest.mark.parametrize("t_values", ["0.1,0.2,nan", "0.1,0.2,0.3", "-0.01,0.1,0.2"])
def test_shifted_weight_refuses_t_outside_a_quarter(capsys, t_values):
    code, out, err = run(capsys, "shifted-weight", "--n", "6", "--a", "-3",
                         f"--t-values={t_values}")
    assert code == EXIT_DOMAIN
    assert err == "parameter error: t values must lie in [0, 1/4]\n"
    assert out == ""


@pytest.mark.parametrize("argv", [
    "talenti-verify --n 5 --a-values=",
    "talenti-verify --n 5 --a-values nan",
    "talenti-verify --n 5 --a-values=-3,inf",
    "talenti-verify --n 5 --a-values 1e200",
    "talenti-verify --n 5 --a-values 1e70",
])
def test_talenti_verify_refuses_bad_a_values(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert code == EXIT_DOMAIN
    assert len(err.splitlines()) == 1 and err.startswith("parameter error: ")
    assert out == ""


def test_ueps_refuses_epsilon_below_the_quadrature_floor(capsys):
    code, out, err = run(capsys, "ueps", "--n", "6", "--epsilons", "1e-26")
    assert code == EXIT_DOMAIN
    assert err == ("parameter error: epsilon=1e-26 is below 8.47e-22, which "
                   "the quadrature does not resolve\n")
    assert out == ""
    for epsilons in ("0.2,0.1,0.05,0.025", "1e-20"):
        code, out, err = run(capsys, "ueps", "--n", "6", "--epsilons", epsilons)
        assert code == EXIT_OK, err
        assert json.loads(out)["below_sstar"] is False


def test_bn_probe_refuses_empty_lambdas(capsys):
    code, out, err = run(capsys, "bn-probe", "--n", "6", "--lambdas=", "--jobs", "1")
    assert code == EXIT_DOMAIN
    assert err == "parameter error: the list of lambda values is empty\n"
    assert out == ""


@pytest.mark.parametrize("argv", [
    "scan --n 5 --q 1 --alpha-range 0,1,0.5",
    "scan --n 5 --q nan --alpha-range 0,1,0.5",
    "scan --n 1 --q 3 --alpha-range 0,1,0.5",
    "radial-min --n 5 --alpha 1 --q nan",
    "constants --n 5 --alpha 0 --q nan",
    "phase --n 5 --alpha 1 --q nan",
    "phase --n 5 --alpha 1 --q 1",
    "ueps --n 5 --epsilons 0.2,nan",
    "ueps --n 5 --lambda nan",
    "shifted-weight --n 6 --a nan",
    "shifted-weight --n 6 --a inf",
    "shifted-weight --n 6 --a 1e100",
    "bn --n 6 --lambda nan --nr 201",
    "bn-probe --n 6 --lambdas 0,nan --nr 201 --jobs 1",
    # a cell weight of the ball grid underflows to 0
    "bn --n 50 --lambda 1 --nr 201",
    "bn-probe --n 52 --lambdas 0 --jobs 1",
    "radial-min --n 5 --alpha 1 --q 3 --grid nan,41",
    "scan --n 5 --q 3 --alpha-range 0,1,1 --grid inf,41",
    "constants --n 5 --alpha 1 --q inf",
    "scan --n 5 --q inf --alpha-range 0,1,1 --jobs 1",
    "radial-min --n 5 --alpha 1 --q inf",
    "phase --n 5 --alpha 1 --q inf",
    "radial-min --n 5 --alpha 1 --q 3 --grid 1e-200,5",
    "radial-min --n 5 --alpha 1 --q 3 --grid 1e-100,5",
    "radial-min --n 5 --alpha 1 --q 3 --grid 1e300,5",
    "radial-min --n 5 --alpha 1 --q 3 --grid 2.5e-77,5",
    # the form is finite, but its fold about s = 0 doubles h gamma^2 ~ 1.2e308
    "radial-min --n 5 --alpha 1e70 --q 3 --grid 3.84e29,5",
    "scan --n 5 --q 3 --alpha-range 0,1,1 --grid 1e-200,5 --jobs 1",
    "scan --n 5 --q 3 --alpha-range 0,1,1 --grid 1e300,5 --jobs 1",
    "scan --n 5 --q 3 --alpha-range 0,1,1 --grid 2.5e-77,5 --jobs 1",
    "scan --n 5 --q 3 --alpha-range 0,1e150,1e150 --jobs 1",
    # an empty entry in a list that has others
    "phase --n 5 --q 3 --alpha-range=0,,1,0.5 --jobs 1",
    "scan --n 5 --q 3 --alpha-range=0,1,0.5, --jobs 1",
    "ueps --n 5 --epsilons 0.2,,0.1",
    "bn-probe --n 6 --lambdas 0,,1 --nr 201 --jobs 1",
    "talenti-verify --n 5 --a-values=,-3",
    "shifted-weight --n 6 --a -3 --t-values 0.02,,0.05",
])
def test_bad_parameters_are_refused_once(capsys, argv):
    # refused before any row or solve: no NaN rows, no traceback, no output
    code, out, err = run(capsys, *argv.split())
    assert code == EXIT_DOMAIN
    assert len(err.splitlines()) == 1 and err.startswith("parameter error: ")
    assert out == ""


def test_bn_probe_byte_identical_across_jobs(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["bn-probe", "--n", "6", "--lambdas", "0,10", "--nr", "201"]
    assert dispatch(args + ["--jobs", "1", "--out", str(out1)]) == EXIT_OK
    assert dispatch(args + ["--jobs", "2", "--out", str(out2)]) == EXIT_OK
    assert len(out1.read_text().splitlines()) == 3
    assert out1.read_bytes() == out2.read_bytes()


def _probe_rows(out):
    """The (lambda, s_lambda, pohozaev_A, converged) of each CSV probe row."""
    header, *rows = out.splitlines()
    assert header == "lambda,s_lambda,sstar_num,below_sstar,pohozaev_A,converged"
    return [(float(c[0]), float(c[1]), float(c[4]), c[5] == "true")
            for c in (row.split(",") for row in rows)]


def test_bn_probe_builds_the_forms_and_lambda21_once(capsys, monkeypatch):
    from ckn import bn_ball
    from ckn.bn_ball import ball_forms, minimize_bn

    calls = []
    for name in ("_quadratic_forms", "_assemble_bn", "bn_lambda21"):
        def counting(*args, _fn=getattr(bn_ball, name), _name=name):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(bn_ball, name, counting)
    code, out, err = run(capsys, "bn-probe", "--n", "6", "--lambdas", "0,10,20",
                         "--nr", "201", "--jobs", "1")
    assert (code, err) == (EXIT_OK, "")
    assert calls == ["_quadratic_forms", "_assemble_bn", "bn_lambda21"]
    rows = _probe_rows(out)
    # the two rows that dip below S** take their Pohozaev residuals on the
    # command's forms
    assert [math.isfinite(row[2]) for row in rows] == [False, True, True]
    # each row is the minimization that builds its own forms, bit for bit
    for lam, s, pohozaev, converged in rows:
        rep = minimize_bn(ball_forms(6, 201), lam)
        assert s == rep.s_lambda
        assert (pohozaev == rep.pohozaev_A_residual
                or math.isnan(pohozaev) and math.isnan(rep.pohozaev_A_residual))
        assert converged is rep.converged


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_bn_probe_refuses_an_unconverged_lambda21_once(capsys, monkeypatch, jobs):
    from ckn import bn_ball

    monkeypatch.setattr(bn_ball, "LAMBDA21_MAX_ITERS", 2)
    code, out, err = run(capsys, "bn-probe", "--n", "6", "--lambdas", "0,10,20",
                         "--nr", "201", "--jobs", jobs)
    assert code == EXIT_UNCONVERGED
    assert len(err.splitlines()) == 1 and err.startswith("non-convergence: ")
    assert out == ""


def test_bn_probe_refuses_a_lambda21_below_its_floor_once(capsys, monkeypatch):
    from ckn import bn_ball

    monkeypatch.setattr(bn_ball, "bn_lambda21", lambda B, C, w: 1.0)
    code, out, err = run(capsys, "bn-probe", "--n", "6", "--lambdas", "0,10",
                         "--nr", "201", "--jobs", "1")
    assert code == EXIT_DOMAIN
    assert err == "error: lambda21=1.0 below n^2/4=9.0\n"
    assert out == ""


def test_json_text_of_numpy_values():
    """numpy scalars and arrays in nested dicts and tuples become plain JSON."""
    import numpy as np

    from ckn.cli import _json_text

    obj = {"values": (np.float64(0.1), np.float64("nan")),
           "nested": {"flag": np.bool_(True), "count": np.int64(7),
                      "matrix": np.array([[1.5, 2.0], [3.0, -0.25]])}}
    assert _json_text(obj) == (
        '{\n  "values": [\n    0.1,\n    NaN\n  ],\n  "nested": {\n'
        '    "flag": true,\n    "count": 7,\n    "matrix": [\n      [\n'
        '        1.5,\n        2.0\n      ],\n      [\n        3.0,\n'
        '        -0.25\n      ]\n    ]\n  }\n}\n')


# each subcommand's JSON top-level keys (a row's, for a table) and CSV header
OUTPUT_KEYS = [
    (("constants", "--n", "5", "--alpha", "0", "--q", "3"),
     "n alpha q beta gamma gbar two_star_star s2_rad mu21_rad conjugate_alpha "
     "rellich_full_sphere rellich_half_sphere",
     "n,alpha,q,beta,gamma,gbar,two_star_star,s2_rad,mu21_rad,conjugate_alpha,"
     "rellich_full_sphere,rellich_half_sphere"),
    (("radial-min", "--n", "5", "--alpha", "1", "--q", "3", "--grid", "8,401"),
     "n alpha q mu_q s_q_rad iterations el_residual converged degenerate status",
     "n,alpha,q,mu_q,s_q_rad,iterations,el_residual,converged,degenerate"),
    (("scan", "--n", "5", "--q", "3", "--alpha-range", "0,0,1", "--grid", "8,401",
      "--jobs", "1"),
     "alpha mu_q s_q_rad s2_rad rellich sq_positive bs_closed_form "
     "bs_certificate converged", SCAN_HEADER),
    (("phase", "--n", "5", "--alpha", "1", "--q", "3", "--jobs", "1"),
     "rows note",
     "alpha,gamma_alpha,break_pos,sphere_threshold_exceeded,lambda1,lambda2,"
     "bs_closed_form"),
    (("critical-check", "--n", "5", "--alpha", "5"),
     "n alpha predicate coefficient interval",
     "n,alpha,predicate,coefficient,interval_lo,interval_hi"),
    (("talenti-verify", "--n", "5"),
     "n I J ratio_relerr sstar_num expansion_relerrs coefficients "
     "identity_relerrs worst_relerr tol passed",
     "n,I,J,ratio_relerr,sstar_num,worst_relerr,passed"),
    (("shifted-weight", "--n", "6", "--a", "-3", "--t-values", "0.02,0.05"),
     "n a C_a e t_values f_values inequality_ok fitted_t2_coeff fitted_t1_coeff "
     "f0 grad_sq", "t,f"),
    (("ueps", "--n", "6", "--lambda", "1", "--epsilons", "0.2,0.1"),
     "n lambda epsilons ratios slope_biharmonic below_sstar cutoff sstar_num "
     "biharmonic_excess mass_deficits",
     "epsilon,ratio,biharmonic_excess,mass_deficit"),
    (("bn", "--n", "6", "--lambda", "10", "--nr", "401"),
     "s_lambda lambda21 sstar_num attained_evidence converged iterations "
     "el_residual pohozaev_A_residual r3_residual status",
     "s_lambda,lambda21,sstar_num,converged,iterations,el_residual,"
     "pohozaev_A_residual,r3_residual"),
    (("bn-probe", "--n", "6", "--lambdas", "10", "--nr", "401", "--jobs", "1"),
     "lambda s_lambda sstar_num below_sstar pohozaev_A converged",
     "lambda,s_lambda,sstar_num,below_sstar,pohozaev_A,converged"),
    (("verify", "--suite", "closed-form"), "passed suites", "suite,passed"),
]


@pytest.mark.parametrize("argv,json_keys,csv_header", OUTPUT_KEYS,
                         ids=[case[0][0] for case in OUTPUT_KEYS])
def test_output_keys_and_header(capsys, argv, json_keys, csv_header):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == EXIT_OK, err
    payload = json.loads(out)
    if isinstance(payload, list):
        payload = payload[0]
    assert list(payload) == json_keys.split()
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert code == EXIT_OK, err
    assert out.splitlines()[0] == csv_header


def test_library_warnings_do_not_depend_on_jobs(capsys):
    """A warning a pool task raises reaches the parent's stderr, once per
    distinct message, as it does at --jobs 1."""
    argv = ("scan", "--n", "5", "--q", "12", "--alpha-range", "0,3,1")
    code1, out1, err1 = run(capsys, *argv, "--jobs", "1")
    code2, out2, err2 = run(capsys, *argv, "--jobs", "2")
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    assert err1 == err2 == ("warning: q=12.0 exceeds the critical exponent "
                            "2n/(n-4)=10.0; only the radial theory applies\n")
