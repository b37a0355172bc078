#!/usr/bin/env python3
"""Cache geometry sensitivity for the two-bit machine.

The paper evaluates 128-block caches without exploring geometry; a
downstream user will want to know how associativity and replacement
policy interact with coherence traffic.  This example sweeps both at a
fixed 128-block capacity: lower associativity causes conflict evictions
of shared blocks, which the two-bit scheme pays for twice — once as a
miss, once as the broadcast the refetch may trigger.

Run:  python examples/cache_geometry.py
"""

from repro import DuboisBriggsWorkload, MachineConfig
from repro.system.builder import build_machine
from repro.verification.audit import audit_machine
from repro.stats.tables import Table

N = 4
GEOMETRIES = [  # (sets, ways) at constant 128-block capacity
    (128, 1),
    (64, 2),
    (32, 4),
    (16, 8),
]
POLICIES = ("lru", "fifo", "random")


def run(sets: int, ways: int, policy: str):
    workload = DuboisBriggsWorkload(
        n_processors=N, q=0.08, w=0.3, private_blocks_per_proc=192, seed=1984
    )
    config = MachineConfig(
        n_processors=N,
        n_modules=2,
        n_blocks=workload.n_blocks,
        cache_sets=sets,
        cache_assoc=ways,
        replacement=policy,
        protocol="twobit",
    )
    machine = build_machine(config, workload)
    machine.run(refs_per_proc=2500, warmup_refs=500)
    audit_machine(machine).raise_if_failed()
    return machine.results()


def main() -> None:
    table = Table(
        header=["geometry", "policy", "miss ratio", "extra cmds/ref", "latency"],
        title=f"Two-bit machine, 128-block caches, n={N}, q=0.08, w=0.3",
        precision=4,
    )
    for sets, ways in GEOMETRIES:
        for policy in POLICIES:
            r = run(sets, ways, policy)
            table.add_row(
                [f"{sets}x{ways}", policy, r.miss_ratio,
                 r.extra_commands_per_ref, r.avg_latency]
            )
    print(table.render())
    print(
        "\nAssociativity buys miss ratio and latency (LRU < FIFO < random,"
        "\nas the classical cache literature predicts), while the broadcast"
        "\noverhead barely moves: the 16 hot shared blocks stay resident in"
        "\nevery geometry, so the coherence cost is set by sharing, not by"
        "\ncache shape — the separation the paper's model assumes."
    )


if __name__ == "__main__":
    main()
