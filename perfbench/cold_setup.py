"""One cold set-up sample: ``python3 cold_setup.py WORKLOAD SEED WORKDIR``.

Prints the seconds from this process's first statement to the point
where the workload could start its first measured unit: importing the
program, building (with the compiled engine's once-per-process table
conformance pass) and warming up, or spawning the sweep pool.  A
calibration sampler runs throughout; the seconds printed leave out its
kernel runs, and are followed by the mean kernel time, by which the
benchmark scales them.  The benchmark starts several of these and
reports the median as ``setup_s``.
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

from calibrate import Sampler  # noqa: E402

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src"))


def setup(name: str, seed: int, workdir: str) -> None:
    import workloads

    workloads.SETUPS[name](seed, workdir)


def main(argv) -> int:
    sampler = Sampler()
    # The first statement to here is a few imports of the standard
    # library, timed but not sampled.
    before = time.perf_counter() - START
    setup_s, calibration, _ = sampler.run(
        lambda: setup(argv[1], int(argv[2]), argv[3]))
    print(f"{before + setup_s!r} {calibration!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
