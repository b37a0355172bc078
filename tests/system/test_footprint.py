"""Memory-footprint regression: building big machines stays cheap.

A build must not allocate dense per-cache-per-block structures — the
copy-holder index starts *empty* and only ever grows entries for blocks
that are actually cached.  These tests pin
that with a hard budget at n=1024 and a scaling check (per-cache cost
must not grow with n).
"""

from __future__ import annotations

import pytest

from repro.config import MachineConfig
from repro.system.builder import build_machine
from repro.system.footprint import measure_build_footprint
from repro.workloads.synthetic import ScriptedWorkload

#: Hard ceiling for an n=1024 interpreted build.  Measured ~4.7 MB peak
#: on the reference container (tracemalloc-inflated); 3x headroom so the
#: bar trips on a real regression (a dense per-block structure at n=1024
#: x 64 blocks adds tens of MB), not on allocator noise.
N1024_PEAK_BUDGET = 16 * 1024 * 1024


def _config(n, n_blocks=64):
    return MachineConfig(
        n_processors=n,
        n_modules=4,
        n_blocks=n_blocks,
        cache_sets=4,
        cache_assoc=2,
        protocol="twobit",
        network="xbar",
    )


def test_n1024_build_stays_under_budget():
    report = measure_build_footprint(_config(1024))
    assert report.peak_bytes < N1024_PEAK_BUDGET, report.render()
    assert report.build_bytes < N1024_PEAK_BUDGET, report.render()


def test_per_cache_cost_does_not_grow_with_n():
    small = measure_build_footprint(_config(64))
    big = measure_build_footprint(_config(1024))
    # Fixed overhead amortizes as n grows, so per-cache cost should fall
    # or hold; 25% slack absorbs measurement noise.  A per-cache dense
    # structure sized by n (or by n_blocks per cache) blows well past it.
    assert big.per_cache_bytes <= small.per_cache_bytes * 1.25, (
        f"per-cache cost grew: {small.render()} -> {big.render()}"
    )


def test_holder_index_is_empty_after_build():
    config = _config(1024)
    machine = build_machine(
        config, ScriptedWorkload([[] for _ in range(1024)])
    )
    for ctrl in machine.controllers:
        holders = getattr(ctrl, "holders", None)
        assert holders is not None
        assert len(holders) == 0
        assert holders.total_members() == 0


def test_footprint_report_renders():
    report = measure_build_footprint(_config(256))
    text = report.render()
    assert "n=256" in text and "KB/cache" in text
    assert report.per_cache_bytes > 0
