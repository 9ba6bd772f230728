"""The summary arithmetic of `tools/bench_record.py`: quartiles per side and
the pairs won against the parent, on runs made up here; and the export of a
parent revision."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def _run(seed, side, wall, rows):
    return {"seed": seed, "side": side, "metrics": {"wall_s": wall, "rows": rows}}


RUNS = [
    _run(1, "change", 1.0, 10), _run(1, "parent", 2.0, 10),
    _run(2, "parent", 2.5, 9), _run(2, "change", 3.0, 11),
    _run(3, "change", 1.5, 12), _run(3, "parent", 2.0, 8),
]


def test_quartiles_of_each_side():
    summary = bench_record.summarize(RUNS, {"wall_s": "lower", "rows": "higher"})
    assert summary["change"]["wall_s"] == {"q1": 1.25, "median": 1.5, "q3": 2.25}
    assert summary["parent"]["wall_s"]["median"] == 2.0
    assert summary["parent"]["rows"] == {"q1": 8.5, "median": 9, "q3": 9.5}


def test_a_single_run_is_its_own_quartiles():
    assert bench_record.quartiles([0.5]) == {"q1": 0.5, "median": 0.5, "q3": 0.5}


def test_pairs_won_follow_the_direction_and_skip_ties():
    won = bench_record.pairs_won(RUNS, {"wall_s": "lower", "rows": "higher"})
    assert won["wall_s"] == {"won": 2, "of": 3}  # seed 2 is lost
    assert won["rows"] == {"won": 2, "of": 3}  # seed 1 is a tie


def test_pairs_need_both_sides():
    runs = RUNS + [_run(4, "change", 0.1, 20)]
    assert bench_record.pairs_won(runs, {"wall_s": "lower"})["wall_s"]["of"] == 3


@pytest.mark.parametrize("argv", [["--workload", "nope"], ["--workload", "oracle", "--runs", "0"]])
def test_bad_arguments_exit_before_any_run(argv):
    with pytest.raises(SystemExit) as exc:
        bench_record.main(argv)
    assert exc.value.code == 2


def test_export_writes_the_files_of_the_revision(tmp_path):
    root = bench_record.ROOT
    ls = subprocess.run(["git", "ls-tree", "-r", "--name-only", "HEAD"], cwd=root,
                        capture_output=True, text=True)
    if ls.returncode != 0:
        pytest.skip("not a git checkout")
    listed = ls.stdout.splitlines()
    bench_record._export("HEAD", tmp_path)
    assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")
                  if p.is_file()) == sorted(listed)
    assert ((tmp_path / "BENCHMARK.json").read_bytes()
            == subprocess.run(["git", "show", "HEAD:BENCHMARK.json"], cwd=root, check=True,
                              capture_output=True).stdout)
