"""Smoke test of `tools/cli_outputs.py`, the dump that compares the CLI
outputs of two checkouts: its command list, one captured command, its
library-call section, and its usage exit."""
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, ROOT / path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # the dataclasses of a module look it up there
    spec.loader.exec_module(module)
    return module


cli_outputs = _load("cli_outputs", "tools/cli_outputs.py")
workloads = _load("perfbench_workloads", "perfbench/workloads.py")


def test_command_lines_hold_every_subcommand_in_both_formats_and_every_refusal():
    lines = cli_outputs.command_lines(workloads)
    for cmd in cli_outputs.SUBCOMMANDS:
        for fmt in ("json", "csv"):
            assert cmd + ("--format", fmt) in lines
    for cmd in cli_outputs.REFUSALS:
        assert cmd in lines


def test_command_lines_hold_the_top_level_paths_of_the_parser():
    lines = cli_outputs.command_lines(workloads)
    assert cli_outputs.USAGE == (
        (), ("--help",), ("-h", "scan"), ("frobnicate",), ("cons",),
        ("--format", "csv", "constants", "--n", "5", "--alpha", "0"),
        ("scan", "--help"), ("verify", "--help"), ("bn-probe", "--help"))
    for argv in cli_outputs.USAGE:
        assert argv in lines


def test_run_captures_a_command(tmp_path):
    from ckn.cli import dispatch

    argv = ("constants", "--n", "5", "--alpha", "0", "--q", "3", "--format", "json")
    rc, out, err = cli_outputs.run(dispatch, argv, str(tmp_path))
    assert (rc, err) == (0, "")
    assert out.startswith("{") and "1.5625" in out


def test_main_refuses_a_wrong_argument_count(capsys):
    assert cli_outputs.main(["only-one"]) == 2
    assert "ROOT OUT.json" in capsys.readouterr().err


def test_library_calls_dump_the_oracle_and_consistency_fields():
    dump = cli_outputs.library_calls(workloads)
    assert list(dump) == (
        [f"consistency {p}" for p in workloads.CONSISTENCY_POINTS]
        + [f"oracle {p}" for p in workloads.ORACLE_POINTS])
    for key, fields in dump.items():
        if key.startswith("oracle"):
            assert list(fields) == ["oracle", "mu_q", "iterations", "el_residual",
                                    "status", "profile_sha256"]
            assert float.fromhex(fields["oracle"]) > 0.0
            assert len(fields["profile_sha256"]) == 64
        else:
            assert list(fields) == ["conjugate_relerr", "sandwich_ok", "concavity_ok",
                                    "asymptotic_ratio_err", "n2_ratio_const_err"]
            assert all(float.fromhex(e) >= 0.0 for e in fields["asymptotic_ratio_err"])
