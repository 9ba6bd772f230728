"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

Each output check must reject a deliberately wrong value, the radial-sweep
output must not depend on --jobs, and the metric names the command prints
must match BENCHMARK.json.
"""
import csv
import io
import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from workloads import CliOutput, Op  # noqa: E402


def _ok(results):
    return all(not problems for _, problems in results)


def _csv_text(rows):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _edit_csv(out, index, **changes):
    rows = list(csv.DictReader(io.StringIO(out.stdout)))
    rows[index].update({k: str(v) for k, v in changes.items()})
    return CliOutput(out.rc, _csv_text(rows), out.stderr)


def _edit_json(out, **changes):
    d = json.loads(out.stdout)
    d.update(changes)
    return CliOutput(out.rc, json.dumps(d), out.stderr)


def _run(op):
    out = workloads.execute(op)
    assert out.rc == 0, out.stderr
    return out


# ---------------------------------------------------------------------------
# ball-sweep


def _probe_output(n, lams, pohozaev=0.03):
    ref = checks.sstar(n)
    rows = []
    for i, lam in enumerate(lams):
        rows.append({"lambda": repr(lam), "s_lambda": repr(ref * (1.0 + 1e-4 - 0.01 * i)),
                     "sstar_num": repr(ref), "below_sstar": "false",
                     "pohozaev_A": "nan" if lam == 0 else repr(pohozaev),
                     "converged": "true"})
    return CliOutput(0, _csv_text(rows), "")


def test_sstar_closed_form_values():
    # quadrature values of the repository, which agree to 5e-16
    assert checks.sstar(5) == pytest.approx(102.38327344058293, rel=1e-14)
    assert checks.sstar(6) == pytest.approx(247.2844473661602, rel=1e-14)


def test_probe_check_accepts_a_good_table():
    assert _ok(checks.check_bn_probe((5, (0.0, 10.0, 20.0)), _probe_output(5, (0.0, 10.0, 20.0))))


@pytest.mark.parametrize("index,changes", [
    (1, {"sstar_num": repr(checks.sstar(5) * (1.0 + 1e-6))}),
    (2, {"s_lambda": repr(checks.sstar(5) * 1.5)}),
    (0, {"s_lambda": repr(checks.sstar(5) * 1.01)}),
    (1, {"pohozaev_A": "0.5"}),
    (1, {"s_lambda": "nan"}),
])
def test_probe_check_rejects(index, changes):
    params = (5, (0.0, 10.0, 20.0))
    bad = _edit_csv(_probe_output(5, params[1]), index, **changes)
    results = checks.check_bn_probe(params, bad)
    assert results[index][1]


def test_probe_check_skips_pohozaev_of_unconverged_rows():
    params = (5, (0.0, 10.0))
    out = _edit_csv(_probe_output(5, params[1]), 1, pohozaev_A="0.5", converged="false")
    assert _ok(checks.check_bn_probe(params, out))


def test_tally_counts_the_known_fault_as_failed_but_correct():
    tally = checks.Tally()
    lams = workloads.BALL_LAMBDAS[5]
    out = _probe_output(5, lams)
    for i, lam in enumerate(lams):
        if ("bn-probe", 5, lam) in checks.KNOWN_FAULT:
            out = _edit_csv(out, i, pohozaev_A="2.68")
    tally.add(Op("bn-probe", (5, lams)), out)
    assert (tally.attempted, tally.failed, tally.correct) == (6, 2, True)
    tally.add(Op("bn-probe", (5, lams)), _edit_csv(out, 3, pohozaev_A="0.5"))
    assert tally.failed == 5 and not tally.correct


# ---------------------------------------------------------------------------
# radial-sweep


@pytest.fixture(scope="module")
def scan_out():
    return _run(Op("scan", (5, 3.0), argv=("scan", "--n", "5", "--q", "3",
                                            "--alpha-range=-6,10,0.5", "--jobs", "1")))


@pytest.fixture(scope="module")
def phase_out():
    return _run(Op("phase", (5, 3.0), argv=("phase", "--n", "5", "--q", "3",
                                             "--alpha-range=-4,8,0.25", "--format", "csv",
                                             "--jobs", "1")))


def test_scan_check_accepts_ckn_output(scan_out):
    assert _ok(checks.check_scan((5, 3.0), scan_out))


@pytest.mark.parametrize("column,factor", [
    ("s2_rad", 1.0 + 1e-9), ("rellich", 1.0 + 1e-9), ("s_q_rad", 1.0 + 1e-9),
    ("mu_q", 1.0 + 1e-15),
])
def test_scan_check_rejects_wrong_numbers(scan_out, column, factor):
    rows = list(csv.DictReader(io.StringIO(scan_out.stdout)))
    i = 3  # alpha = -4.5, mirrored by alpha = 8.5
    bad = _edit_csv(scan_out, i, **{column: repr(float(rows[i][column]) * factor)})
    assert not _ok(checks.check_scan((5, 3.0), bad))


def test_scan_check_rejects_a_flipped_flag(scan_out):
    rows = list(csv.DictReader(io.StringIO(scan_out.stdout)))
    flag = "false" if rows[0]["bs_closed_form"] == "true" else "true"
    assert not _ok(checks.check_scan((5, 3.0), _edit_csv(scan_out, 0, bs_closed_form=flag)))


def test_mirror_check_tolerance_off_dyadic_grid():
    a = 0.1 + 0.2  # a - 2 and 3.7 - 2 differ in the last bit
    rows = {a: {"alpha": repr(a), "mu_q": "1.0"}, 3.7: {"alpha": "3.7", "mu_q": "1.0000000001"}}
    assert checks._mirror_problem(a, 1.0, rows)
    rows[3.7]["mu_q"] = repr(1.0 + 1e-14)
    assert not checks._mirror_problem(a, 1.0, rows)


def test_phase_check(phase_out):
    assert _ok(checks.check_phase((5, 3.0), phase_out))
    rows = list(csv.DictReader(io.StringIO(phase_out.stdout)))
    for column in ("break_pos", "sphere_threshold_exceeded", "bs_closed_form"):
        flag = "false" if rows[0][column] == "true" else "true"
        assert not _ok(checks.check_phase((5, 3.0), _edit_csv(phase_out, 0, **{column: flag})))
    bad = _edit_csv(phase_out, 0, gamma_alpha=repr(float(rows[0]["gamma_alpha"]) + 1e-6))
    assert not _ok(checks.check_phase((5, 3.0), bad))


def test_exact_closed_forms():
    g = checks.gamma_exact(5, 0.0)
    assert g == Fraction(5, 4)
    # full-sphere Rellich constant: the k = 0 level is nearest to -gamma
    assert checks.rellich_exact(5, g) == Fraction(25, 16)
    assert checks.rellich_exact(5, checks.gamma_exact(5, 13.0)) == 0


def test_consistency_check():
    good = SimpleNamespace(conjugate_relerr=1e-8, concavity_ok=True)
    assert _ok(checks.check_consistency((5, 0.0, 3.0), good))
    for bad in (SimpleNamespace(conjugate_relerr=2e-3, concavity_ok=True),
                SimpleNamespace(conjugate_relerr=None, concavity_ok=True),
                SimpleNamespace(conjugate_relerr=1e-8, concavity_ok=False)):
        assert not _ok(checks.check_consistency((5, 0.0, 3.0), bad))


# ---------------------------------------------------------------------------
# certify


def test_verify_check():
    out = _run(Op("verify", (5,), argv=("verify", "--suite", "closed-form", "--n", "5")))
    assert _ok(checks.check_verify((5,), out))
    assert not _ok(checks.check_verify((5,), _edit_json(out, passed=False)))
    assert not _ok(checks.check_verify((5,), CliOutput(2, "", "failed")))


def test_talenti_check():
    out = _run(Op("talenti", (6, False), argv=("talenti-verify", "--n", "6")))
    assert _ok(checks.check_talenti((6, False), out))
    bad = _edit_json(out, sstar_num=checks.sstar(6) * (1.0 + 1e-6))
    assert not _ok(checks.check_talenti((6, False), bad))


def test_ueps_check():
    out = _run(Op("ueps", (7,), argv=("ueps", "--n", "7", "--lambda", "1")))
    assert _ok(checks.check_ueps((7,), out))
    assert not _ok(checks.check_ueps((7,), _edit_json(out, slope_biharmonic=3.25)))
    bad = _edit_json(out, sstar_num=checks.sstar(7) * (1.0 + 1e-6))
    assert not _ok(checks.check_ueps((7,), bad))


def test_shifted_weight_check():
    out = _run(Op("shifted-weight", (6, -3.0), argv=("shifted-weight", "--n", "6", "--a=-3")))
    assert _ok(checks.check_shifted_weight((6, -3.0), out))
    assert not _ok(checks.check_shifted_weight((6, -3.0), _edit_json(out, C_a=2.0 + 1e-9)))
    assert not _ok(checks.check_shifted_weight((6, -3.0), _edit_json(out, inequality_ok=False)))


def test_critical_check():
    out = _run(Op("critical-check", (5, 5.0), argv=("critical-check", "--n", "5", "--alpha=5")))
    assert _ok(checks.check_critical((5, 5.0), out))
    assert checks.strictness_upper(5) == math.sqrt(13.0)
    assert not _ok(checks.check_critical((5, 5.0), _edit_json(out, interval=[2.0, 3.0])))
    assert not _ok(checks.check_critical((5, 5.0), _edit_json(out, predicate=False)))


# ---------------------------------------------------------------------------
# oracle


def test_oracle_check():
    good = SimpleNamespace(mu_q=10.0005, converged=True)
    assert _ok(checks.check_oracle((5, 0.0, 3.0), (10.0, good)))
    bad = SimpleNamespace(mu_q=10.002, converged=True)
    assert not _ok(checks.check_oracle((5, 0.0, 3.0), (10.0, bad)))
    assert not _ok(checks.check_oracle((5, 0.0, 3.0), (10.0, SimpleNamespace(mu_q=10.0, converged=False))))


# ---------------------------------------------------------------------------
# the command


def test_radial_sweep_output_does_not_depend_on_jobs():
    ops = [op for op in workloads.build("radial-sweep", 7) if op.argv]
    assert workloads.fans_out(ops)
    for fanned, inline in zip(ops, workloads.inline(ops)):
        a, b = workloads.execute(fanned), workloads.execute(inline)
        assert a.rc == b.rc == 0
        assert a.stdout == b.stdout, fanned.argv


def test_seed_shifts_only_the_radial_sweep_grids():
    assert workloads.build("radial-sweep", 1) == workloads.build("radial-sweep", 1)
    assert workloads.build("radial-sweep", 1) != workloads.build("radial-sweep", 2)
    for name in ("ball-sweep", "certify", "oracle"):
        assert workloads.build(name, 1) == workloads.build(name, 2)


def _bench_run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _bench_run("certify", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec[key]}
    for m in spec[key]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench_run("certify", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
