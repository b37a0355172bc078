"""Output checks, statistics, set-up sampling and result printing.

Every measured operation of a workload runs inside :meth:`Tally.op`.
An operation fails when it raises or when one of its checks fails; the
run's ``failed`` count, ``attempted`` count and ``correct`` flag come
from the tally, so a wrong output can never pass as a fast one.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

from calibrate import REFERENCE_S, Sampler

HERE = os.path.dirname(os.path.abspath(__file__))

#: Cold set-up processes started per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5

#: Seconds one cold set-up process may take before it counts as failed.
SETUP_TIMEOUT_S = 120


class Checks:
    """The checks of one operation; any failure fails the operation."""

    def __init__(self) -> None:
        self.problems: List[str] = []

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)

    def equal(self, got, expected, what: str) -> None:
        self.check(got == expected, f"{what} differs")


class Tally:
    """Operations attempted and failed in one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    @contextmanager
    def op(self, what: str) -> Iterator[Checks]:
        """Run one operation; an exception inside counts as its failure.

        Code after the ``with`` block must not rely on values the block
        would have produced: record measurements as the block's last step.
        """
        checks = Checks()
        self.attempted += 1
        try:
            yield checks
        except Exception as exc:  # any crash is a failed operation
            checks.problems.append(f"{type(exc).__name__}: {exc}")
        if checks.problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in checks.problems)

    @property
    def failure_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


class HostClock:
    """Times units of work and scales them to the reference host.

    Each unit runs under a :class:`calibrate.Sampler`; its wall time,
    less the kernel runs', is multiplied by ``REFERENCE_S`` over the
    mean kernel time during the unit, which removes the host's speed
    drift (see ``calibrate.py``).  With ``scaled=False`` (traced runs,
    whose spans must not contain kernel runs) units get plain wall time.
    """

    def __init__(self, scaled: bool = True) -> None:
        self.scaled = scaled
        #: Mean kernel time of each scaled unit.
        self.calibrations: List[float] = []

    def time(self, *units: Callable[[], Any]) -> List[Tuple[float, Any]]:
        """Run each zero-argument unit, back to back; returns its
        (seconds, result)."""
        timed = []
        for unit in units:
            gc.collect()
            if self.scaled:
                wall, kernel, result = Sampler().run(unit)
                self.calibrations.append(kernel)
                timed.append((wall * REFERENCE_S / kernel, result))
            else:
                start = time.perf_counter()
                result = unit()
                timed.append((time.perf_counter() - start, result))
        return timed


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("no samples were measured")
    return statistics.median(values)


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("no samples were measured")
    return statistics.fmean(values)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its waited-for
    children (sweep workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def sample_setup(tally: Tally, workload: str, seed: int, workdir: str) -> float:
    """Median cold set-up time over :data:`SETUP_SAMPLES` fresh processes.

    Each process imports the program, builds and warms up exactly as the
    workload's first measured unit needs, under a calibration sampler
    (``cold_setup.py``); its time is scaled like every other.
    """
    samples = []
    for i in range(SETUP_SAMPLES):
        with tally.op(f"{workload} cold set-up {i}") as checks:
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "cold_setup.py"),
                 workload, str(seed), workdir],
                capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
            )
            checks.check(
                done.returncode == 0,
                f"exit {done.returncode}: {done.stderr.strip()[-500:]}",
            )
            if done.returncode == 0:
                setup_s, calibration = map(float, done.stdout.split()[-2:])
                samples.append(setup_s * REFERENCE_S / calibration)
    return median(samples)


def report(workload: str, tally: Tally, clock: HostClock,
           metrics: Dict[str, Tuple[float, str]], reported: Sequence[str],
           roles: Dict[str, str]) -> None:
    """Print every metric by name and unit, then, as the last line, the
    JSON result object with exactly the ``reported`` metrics.

    Metrics not in ``reported`` are details this workload alone has;
    ``roles`` says what a role metric counts on this workload.  A
    reported metric the run did not measure raises ``KeyError`` before
    anything is printed.
    """
    result = {name: metrics[name] for name in reported}
    if clock.calibrations:
        print(f"{workload:<11} host times scaled to a calibration kernel time "
              f"of {REFERENCE_S} s; measured median "
              f"{median(clock.calibrations):.6f} s")
    for name, (value, unit) in metrics.items():
        role = f"  ({roles[name]})" if name in roles else ""
        detail = "" if name in result else "  [detail]"
        print(f"{workload:<11} {name:<40} {value:>14.6g} {unit}{role}{detail}")
    print(
        f"{workload:<11} {'failure_ratio':<40} {tally.failure_ratio:>14.6g} "
        f"ratio ({tally.failed} of {tally.attempted} operations failed)"
    )
    for problem in tally.problems:
        print(f"{workload:<11} FAILED {problem}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result.items()
        },
    }))
