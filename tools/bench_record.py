"""Record benchmark runs of this checkout, paired with a parent revision, as
`BENCH_<workload>.json` files that later changes can be compared against.

    python3 tools/bench_record.py --workload oracle --runs 10 --parent HEAD~1 \
        [--seed0 1] [--out DIR]

For each workload and each seed seed0 … seed0 + runs − 1, the script runs
`perfbench/run.py --workload W --seed S --seconds T --trace 0`, with T the
`run_seconds` of `BENCHMARK.json`, once in this checkout and, with
`--parent`, once in a copy of that revision made by `git archive` in a
temporary directory. The two runs of a pair alternate which goes first.
Each file holds the commit, the Python, numpy and scipy versions, `nproc`
and the CPU model; every run's seed, side, order, failed share and
end-to-end metrics; per side the median and quartiles of each metric; and,
per metric, the number of pairs in which this checkout did better than the
parent (the direction comes from `BENCHMARK.json`).
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One end-to-end run of `perfbench/run.py` in `checkout`: its last
    stdout line, parsed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited with "
                           f"{proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def quartiles(values) -> dict:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def summarize(runs, metrics) -> dict:
    """Per side, the quartiles of each metric over its runs."""
    out = {}
    for side in sorted({r["side"] for r in runs}):
        mine = [r for r in runs if r["side"] == side]
        out[side] = {m: quartiles([r["metrics"][m] for r in mine]) for m in metrics}
    return out


def pairs_won(runs, metrics) -> dict:
    """Per metric, the pairs (same seed) in which the change did better than
    the parent; `metrics` maps each name to "lower" or "higher"."""
    change = {r["seed"]: r["metrics"] for r in runs if r["side"] == "change"}
    parent = {r["seed"]: r["metrics"] for r in runs if r["side"] == "parent"}
    seeds = sorted(change.keys() & parent.keys())
    won = {}
    for m, better in metrics.items():
        sign = 1.0 if better == "lower" else -1.0
        won[m] = {"won": sum(sign * (parent[s][m] - change[s][m]) > 0.0 for s in seeds),
                  "of": len(seeds)}
    return won


def _export(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # extraction filters exist from Python 3.10.12 and 3.11.4 on
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def record(workload, seeds, seconds, parent_rev, parent_dir, metrics) -> dict:
    runs = []
    for k, seed in enumerate(seeds):
        sides = [("change", ROOT)] + ([("parent", parent_dir)] if parent_dir else [])
        if k % 2:
            sides.reverse()
        for order, (side, checkout) in enumerate(sides):
            res = run_once(checkout, workload, seed, seconds)
            runs.append({"seed": seed, "side": side, "order": order,
                         "correct": res["correct"], "attempted": res["attempted"],
                         "failed": res["failed"],
                         "metrics": {m: res["metrics"][m]["value"] for m in metrics}})
            print(f"{workload} seed {seed} {side}: "
                  + ", ".join(f"{m} {runs[-1]['metrics'][m]:.4g}" for m in metrics),
                  file=sys.stderr)
    doc = {
        "workload": workload,
        "commit": _git("rev-parse", "HEAD"),
        "dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "parent": ({"rev": parent_rev, "commit": _git("rev-parse", parent_rev)}
                   if parent_rev else None),
        "environment": environment(),
        "seconds": seconds,
        "seeds": list(seeds),
        "runs": runs,
        "summary": summarize(runs, metrics),
    }
    if parent_rev:
        doc["pairs_won"] = pairs_won(runs, metrics)
    return doc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", required=True,
                    help="a workload of BENCHMARK.json; repeat for several")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--parent", metavar="REV", help="git revision to pair each run with")
    ap.add_argument("--out", type=Path, default=ROOT)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = {w["name"] for w in bench["workloads"]}
    for w in args.workload:
        if w not in known:
            ap.error(f"unknown workload {w!r}; BENCHMARK.json has {sorted(known)}")
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seeds = range(args.seed0, args.seed0 + args.runs)
    with tempfile.TemporaryDirectory(prefix="bench_parent_") as tmp:
        parent_dir = None
        if args.parent:
            parent_dir = Path(tmp)
            _export(args.parent, parent_dir)
        for w in args.workload:
            doc = record(w, seeds, bench["run_seconds"], args.parent, parent_dir, metrics)
            path = args.out / f"BENCH_{w}.json"
            path.write_text(json.dumps(doc, indent=1) + "\n")
            print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
