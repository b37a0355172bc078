"""Build-time memory footprint measurement.

The expandability argument (paper section 1: the two-bit scheme "stays
economical as the system expands") has a simulator-side analog: building
an n-cache machine must cost O(n) memory with a small constant, not
O(n x blocks) dense per-cache structures.  :func:`measure_build_footprint`
wraps a machine build in :mod:`tracemalloc` so tests can put a hard
budget on that constant — see ``tests/system/test_footprint.py``.

Measurement notes:

* ``build_bytes`` is the *net* allocation attributable to the build
  (traced bytes after minus before), which excludes the interpreter's
  and tracemalloc's own baseline.
* ``peak_bytes`` is the tracemalloc high-water mark during the build;
  transient spikes (e.g. compiling the protocol's transition table on
  its first build) show up here and not in ``build_bytes``.
* tracemalloc adds per-allocation overhead, so absolute numbers are an
  upper bound on real usage — fine for a regression *budget*, wrong for
  a marketing number.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass


@dataclass(frozen=True)
class FootprintReport:
    """Memory cost of building one machine (see module docstring)."""

    n_processors: int
    build_bytes: int
    peak_bytes: int

    @property
    def per_cache_bytes(self) -> float:
        """Net build bytes averaged over caches — the scaling constant."""
        return self.build_bytes / max(self.n_processors, 1)

    def render(self) -> str:
        return (
            f"n={self.n_processors}: net {self.build_bytes / 1e6:.2f} MB, "
            f"peak {self.peak_bytes / 1e6:.2f} MB, "
            f"{self.per_cache_bytes / 1024:.1f} KB/cache"
        )


def measure_build_footprint(config, workload=None) -> FootprintReport:
    """Build a machine from ``config`` under tracemalloc; report the cost.

    With no ``workload`` an empty scripted workload is used, so the
    measurement is the machine structure alone.  The built machine is
    discarded — this helper measures construction, not simulation.
    """
    # Imported here: the builder pulls in the protocol packages, which
    # would otherwise be charged to the first measurement's baseline.
    from repro.system.builder import build_machine
    from repro.workloads.synthetic import ScriptedWorkload

    if workload is None:
        workload = ScriptedWorkload([[] for _ in range(config.n_processors)])
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        machine = build_machine(config, workload)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    del machine
    return FootprintReport(
        n_processors=config.n_processors,
        build_bytes=after - before,
        peak_bytes=peak,
    )
