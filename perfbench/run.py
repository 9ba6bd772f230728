"""Benchmark of ckn: one workload, end to end (--trace 0) or by layer (--trace 1).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; ckn is imported from ./src. The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics. End to end, the metrics are wall_s, cpu_s and peak_rss_mb of the
workload process (see session.py) and setup_s, the median time a fresh
interpreter takes to import what the workload uses.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
DEADLINE_S = 170.0


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # one BLAS/OpenMP thread per process: the parallelism measured is the
    # program's own --jobs fan-out
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_seconds(workload: str, env: dict) -> float:
    """Median time from starting a fresh interpreter to its "ready" line,
    after one warm-up start that fills the bytecode cache."""
    times = []
    for k in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "session.py"), "--probe", workload],
                              stdout=subprocess.PIPE, env=env, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        if k:
            times.append(dt)
    return statistics.median(times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ckn" / "__init__.py").is_file():
        print(f"error: no ckn package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    start = time.perf_counter()
    env = _env()
    try:
        setup = None if args.trace else setup_seconds(args.workload, env)
        proc = subprocess.run(
            [sys.executable, str(HERE / "session.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, env=env, cwd=ROOT,
            timeout=max(1.0, DEADLINE_S - (time.perf_counter() - start)))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: workload process exited with code {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    if setup is not None:
        metrics["setup_s"] = {"value": setup, "unit": "s"}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
