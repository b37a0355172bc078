#!/usr/bin/env python3
"""Run the kernel speed benchmarks and record them in BENCH_kernel.json.

Usage (from the repo root)::

    PYTHONPATH=src python benchmarks/record_bench.py          # record
    PYTHONPATH=src python benchmarks/record_bench.py --gate   # CI check

Runs ``bench_kernel_speed.py`` under pytest-benchmark, converts the
timings into throughput (events/sec for the bare kernel churn, refs/sec
for the full two-bit machine), and rewrites ``BENCH_kernel.json`` at the
repo root, including the speedup over the recorded seed baseline.

``--gate`` compares a fresh run against the *stored* BENCH_kernel.json
without rewriting it.  Raw wall-clock drifts with the host, so the bare
kernel churn (which has no probe sites) is used as a hardware
calibrator: the gate fails when a machine bench slows down more than
``BENCH_GATE_TOLERANCE`` (default 2%) *beyond* whatever the calibrator
moved.  This is the instrumentation-overhead bar: probes-off machine
throughput must stay within tolerance of the recorded baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUTPUT = ROOT / "BENCH_kernel.json"

#: The benchmark selections whose timings are recorded.
BENCH_TARGETS = [
    "benchmarks/bench_kernel_speed.py",
    "benchmarks/bench_scalability.py::test_index_fanout_peak_n",
]

#: Work done per benchmark round (asserted inside the bench modules).
WORK_UNITS = {
    "test_kernel_event_throughput": ("events", 10_001),
    "test_machine_reference_throughput": ("refs", 2_000),
    "test_machine_instrumented_throughput": ("refs", 2_000),
    "test_dispatch_hit_compiled": ("refs", 2_000),
    # n=256 holder-index fan-out run (peak-n regime of bench_scalability.py).
    "test_index_fanout_peak_n": ("refs", 15_360),
}

#: The gate's hardware calibrator: no probe sites on its path, so any
#: drift it shows is the host, not the code under test.
GATE_CALIBRATOR = "test_kernel_event_throughput"
DEFAULT_GATE_TOLERANCE = 0.02

#: Pre-optimization numbers, measured on this container at the seed
#: kernel (dataclass events, O(n) pending scans, per-message dataclass
#: allocation).  The acceptance bar for the fast path is >= 1.5x refs/sec
#: against this baseline.
BASELINE = {
    "test_kernel_event_throughput": {"mean_s": 0.02180, "per_sec": 458_761},
    "test_machine_reference_throughput": {"mean_s": 0.07485, "per_sec": 26_720},
}


def run_benchmarks() -> dict:
    """Execute the speed bench; return pytest-benchmark's JSON payload."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "bench.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        subprocess.run(
            [
                sys.executable,
                "-m",
                "pytest",
                *BENCH_TARGETS,
                "--benchmark-only",
                f"--benchmark-json={out}",
                "-q",
            ],
            cwd=ROOT,
            env=env,
            check=True,
        )
        return json.loads(out.read_text())


def build_record(payload: dict) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.runner import code_version

    record = {
        "description": "Simulator throughput (benchmarks/bench_kernel_speed.py)",
        "recorded_with": "benchmarks/record_bench.py",
        "datetime": payload.get("datetime"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "code_version": code_version(),
        "benchmarks": {},
    }
    for bench in payload["benchmarks"]:
        name = bench["name"]
        if name not in WORK_UNITS:
            continue
        unit, work = WORK_UNITS[name]
        stats = bench["stats"]
        entry = {
            "unit": unit,
            "work_per_round": work,
            "mean_s": stats["mean"],
            "min_s": stats["min"],
            "stddev_s": stats["stddev"],
            "rounds": stats["rounds"],
            f"{unit}_per_sec_mean": work / stats["mean"],
            f"{unit}_per_sec_best": work / stats["min"],
        }
        baseline = BASELINE.get(name)
        if baseline:
            entry["baseline_mean_s"] = baseline["mean_s"]
            entry["speedup_vs_baseline"] = baseline["mean_s"] / stats["mean"]
        if bench.get("extra_info"):
            entry["extra_info"] = bench["extra_info"]
        record["benchmarks"][name] = entry
    return record


def check_gate(record: dict, stored: dict, tolerance: float) -> list:
    """Calibrated regression check; returns the names that failed.

    Delegates to :func:`repro.obs.report.calibrated_regressions` — the
    same comparison the ``repro report`` rollup path uses, so the CI
    gate and the fleet report can never disagree about what counts as a
    regression.
    """
    sys.path.insert(0, str(ROOT / "src"))
    from repro.obs.report import calibrated_regressions

    return calibrated_regressions(
        record["benchmarks"],
        stored["benchmarks"],
        calibrator=GATE_CALIBRATOR,
        tolerance=tolerance,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--gate",
        action="store_true",
        help="compare against the stored BENCH_kernel.json instead of "
        "rewriting it; exit 1 on a calibrated regression",
    )
    args = parser.parse_args()
    record = build_record(run_benchmarks())
    if args.gate:
        tolerance = float(
            os.environ.get("BENCH_GATE_TOLERANCE", DEFAULT_GATE_TOLERANCE)
        )
        stored = json.loads(OUTPUT.read_text())
        failed = check_gate(record, stored, tolerance)
        if failed:
            print(f"gate: FAILED ({', '.join(failed)})")
            return 1
        print("gate: PASSED")
        return 0
    OUTPUT.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {OUTPUT}")
    for name, entry in record["benchmarks"].items():
        unit = entry["unit"]
        line = f"  {name}: {entry[f'{unit}_per_sec_mean']:,.0f} {unit}/s"
        if "speedup_vs_baseline" in entry:
            line += f" ({entry['speedup_vs_baseline']:.2f}x vs seed baseline)"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
