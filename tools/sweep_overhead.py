#!/usr/bin/env python3
"""Per-point scheduling overhead of each sweep transport.

Times a sweep of no-op points (``dict(i=...)``: nothing to simulate, so
the wall time is all scheduling) with the result cache off, on each
transport: inline, the worker pool at ``workers=2`` (``run_sweep`` and
its ``run_sweep_elastic`` alias), and a loopback sweep service served
by two ``repro work`` agents.  Prints the median of ``--reps`` runs in
milliseconds per point, pool and agent start-up included.

Usage::

    PYTHONPATH=src python tools/sweep_overhead.py [--points 400] [--reps 5]
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time

from repro.runner import SweepPoint, run_sweep, run_sweep_elastic
from repro.runner.service import Coordinator, ServiceConfig, run_sweep_service


def per_point_ms(run, points, reps):
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        run(points)
        times.append(time.perf_counter() - start)
    return statistics.median(times) / len(points) * 1e3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=400)
    parser.add_argument("--reps", type=int, default=5)
    args = parser.parse_args()
    points = [SweepPoint(dict, {"i": i}) for i in range(args.points)]
    rows = {
        "inline": lambda p: run_sweep(p, use_cache=False),
        "run_sweep(workers=2)": lambda p: run_sweep(
            p, workers=2, use_cache=False
        ),
        "run_sweep_elastic(workers=2)": lambda p: run_sweep_elastic(
            p, workers=2, use_cache=False
        ),
    }
    results = {
        name: per_point_ms(run, points, args.reps) for name, run in rows.items()
    }

    scratch = tempfile.mkdtemp(prefix="sweep-overhead-")
    coordinator = Coordinator(
        ServiceConfig(
            cache_dir=os.path.join(scratch, "cache"),
            checkpoint_dir=os.path.join(scratch, "ckpt"),
            progress_dir=os.path.join(scratch, "progress"),
        )
    )
    url = coordinator.start()
    agents = [
        subprocess.Popen(
            [sys.executable, "-m", "repro", "work", "--coordinator", url,
             "--poll", "0.01", "--max-idle", "600"],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        for _ in range(2)
    ]
    try:
        while coordinator.handle("GET", "/healthz", None)[1]["workers"] < 2:
            time.sleep(0.05)
        results["service (2 agents)"] = per_point_ms(
            lambda p: run_sweep_service(
                p, url, use_cache=False, poll_interval=0.01
            ),
            points,
            args.reps,
        )
    finally:
        for agent in agents:
            agent.terminate()
        for agent in agents:
            agent.wait()
        coordinator.stop()
    for name, ms in results.items():
        print(f"{name:30s} {ms:.3f} ms/point")


if __name__ == "__main__":
    main()
