"""The repository benchmark: ``python3 perfbench/run.py``.

    python3 perfbench/run.py --workload dubois_n4 --seed 1 --seconds 20 --trace 0

runs one workload in this process and prints every metric by name and
unit, then, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics (no tracing anywhere); ``--trace 1`` runs the traced
twin of the workload and reports the per-layer metrics.  Every workload
reports the same metrics in its result line (see ``workloads.py``).  Without
``--workload`` every workload runs, each in its own fresh process.

The program is imported from ``src/`` next to this directory; without
it the benchmark exits with an error before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Scratch space (traces, checkpoints, result caches) and span files.
OUT = os.path.join(HERE, "out")

WORKLOAD_NAMES = ("dubois_n4", "trace_n64", "check_deep", "sweep_tiny")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in a fresh process; exit 1 if any fails."""
    status = 0
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if done.returncode == 0 else None
        if result is None or not result["correct"]:
            status = 1
    return status


def run_one(args) -> int:
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {src}: {exc}",
              file=sys.stderr)
        return 1
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"perfbench: imported the program from {repro.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 1
    import harness
    import tracer
    import workloads

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    # Anything the program or its workers put in a temp dir stays inside
    # the checkout.
    os.environ["TMPDIR"] = workdir
    tempfile.tempdir = workdir
    try:
        tally = harness.Tally()
        workload = workloads.WORKLOADS[args.workload]
        if args.trace:
            clock, metrics, tracers = workload.trace(args.seed, tally, workdir)
            tracer.write_spans(
                os.path.join(OUT, f"spans-{args.workload}.jsonl"), tracers)
        else:
            clock, metrics = workload.run(args.seed, args.seconds, tally,
                                          workdir)
            # Read before the set-up samples: their processes are not
            # part of the workload.
            metrics["peak_rss_mb"] = (harness.peak_rss_mb(), "MB")
            metrics["setup_s"] = (
                harness.sample_setup(tally, args.workload, args.seed, workdir),
                "s")
        reported = workloads.PER_LAYER if args.trace else workloads.END_TO_END
        harness.report(args.workload, tally, clock, metrics, reported,
                       workload.roles)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
