"""The workload process: runs whole rounds of one workload for a given time,
checks every output, and prints one JSON line.

    python3 perfbench/session.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/session.py --probe NAME

Untraced, it reports the median wall and CPU time of a round and the peak
resident set. Traced, it runs one untraced round, then traced rounds, and
reports the per-layer metrics per round and the tracing overhead. With
--probe it only imports what the workload uses and prints "ready".
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = HERE / "out"


def _cpu() -> float:
    """User plus system time of this process and its reaped workers."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def run_round(ops, tally):
    """Run every operation once; returns (wall s, cpu s). The checks run
    after the clock stops."""
    c0 = _cpu()
    t0 = time.perf_counter()
    outputs = [workloads.execute(op) for op in ops]
    wall = time.perf_counter() - t0
    cpu = _cpu() - c0
    for op, out in zip(ops, outputs):
        tally.add(op, out)
    return wall, cpu


def untraced(ops, seconds, tally):
    walls, cpus = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, cpu = run_round(ops, tally)
        walls.append(wall)
        cpus.append(cpu)
    peak_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    print("round walls:", " ".join(f"{w:.3f}" for w in walls), file=sys.stderr)
    return {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
        "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MiB"},
    }, len(walls)


def traced(name, seed, ops, seconds, tally):
    """One untraced round, then traced rounds. A workload that fans out
    runs each traced round twice: as is, for the fan-out spans and the
    overhead, and with every fan-out run in-process, so the workers' layer
    time is attributed."""
    import tracing

    start = time.perf_counter()
    base_wall, _ = run_round(ops, tally)
    inst = tracing.Instrumentation()
    inst.install()
    passes = {"fanout": [], "inline": []}
    inline_ops = workloads.inline(ops) if workloads.fans_out(ops) else None
    walls = []
    try:
        while not walls or time.perf_counter() - start < seconds:
            inst.tracer = tracing.Tracer()
            wall, _ = run_round(ops, tally)
            walls.append(wall)
            passes["fanout"].append(inst.tracer)
            if inline_ops is not None:
                inst.tracer = tracing.Tracer()
                run_round(inline_ops, tally)
                passes["inline"].append(inst.tracer)
            inst.tracer = None
    finally:
        inst.tracer = None
        inst.uninstall()
    metrics = tracing.layer_metrics(passes, len(walls))
    metrics["trace.overhead_s"] = {"value": statistics.median(walls) - base_wall, "unit": "s"}
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"trace-{name}-seed{seed}.csv", "w") as fh:
        fh.write("pass,id,parent,name,start_ns,end_ns\n")
        for label, tracers in passes.items():
            for k, tr in enumerate(tracers):
                tr.write(fh, f"{label}{k}")
    return metrics, len(walls)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", choices=workloads.WORKLOADS)
    args = ap.parse_args(argv)
    if args.probe:
        workloads.load(args.probe)
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        return 0
    workloads.load(args.workload)
    ops = workloads.build(args.workload, args.seed)
    tally = checks.Tally()
    if args.trace:
        metrics, rounds = traced(args.workload, args.seed, ops, args.seconds, tally)
    else:
        metrics, rounds = untraced(ops, args.seconds, tally)
    print(f"{args.workload}: {rounds} round(s)", file=sys.stderr)
    for p in tally.problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
