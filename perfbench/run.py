#!/usr/bin/env python3
"""Benchmark of the TD-NUCA reproduction: simulator and service.

Usage (from the repository root):

    python3 perfbench/run.py --workload sim-runtime-heavy --seed 0 \\
        --seconds 30 --trace 0

Runs one workload, checks its outputs, prints a table of every metric
with its unit and sample count, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json,
``--trace 1`` its per-layer metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SERVICE_WORKLOAD = "service-closed-loop"
SETUP_PROBES = 5


def probe_setup(env: dict[str, str], code: str) -> float:
    """Seconds from spawning a fresh interpreter until ``code`` prints
    ``ready``; the probe is waited for."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=HERE, env=env,
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    spent = time.perf_counter() - start
    proc.communicate(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {line!r}")
    return spent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import serviceload
    import simload
    from hostspeed import HostSpeed

    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    env = {**os.environ, "TMPDIR": str(work),
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(HERE)])}
    speed = HostSpeed()
    try:
        if args.workload == SERVICE_WORKLOAD:
            report = serviceload.run(args.seed, args.seconds, bool(args.trace),
                                     ROOT, work, env, speed)
        else:
            speed.mark()
            setup = [probe_setup(env, simload.PROBE_CODE)
                     for _ in range(SETUP_PROBES)]
            speed.mark()
            report = simload.run(args.workload, args.seed, args.seconds,
                                 bool(args.trace), work, setup, speed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    print(f"  {'metric':28s} {'value':>14s} {'unit':6s} samples")
    for entry in wanted:
        name = entry["name"]
        if name in report.metrics:
            value, unit, samples = report.metrics[name]
        elif args.trace:
            # A layer this workload never enters.
            value, unit, samples = 0.0, entry["unit"], 0
        else:
            raise SystemExit(f"error: workload produced no {name}")
        if unit != entry["unit"]:
            raise SystemExit(f"error: {name} in {unit}, BENCHMARK.json says "
                             f"{entry['unit']}")
        count = "-" if samples is None else str(samples)
        print(f"  {name:28s} {value:14.6g} {unit:6s} {count}")
        metrics[name] = {"value": value, "unit": unit}
    print(f"  ops attempted={report.attempted} failed={report.failed}")
    print(json.dumps({
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
