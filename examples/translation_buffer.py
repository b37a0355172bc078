#!/usr/bin/env python3
"""§4.4: sizing the translation buffer.

A memory controller with a small buffer of owner identities can convert
broadcasts into full-map-style selective commands whenever it hits.  The
paper's claim: a 90% hit ratio eliminates 90% of the broadcast overhead.
This example sweeps real buffer capacities, reports the emergent hit
ratio and residual overhead, and checks the claim with the forced-ratio
modelling mode.

Run:  python examples/translation_buffer.py
"""

from repro import DuboisBriggsWorkload, MachineConfig, ProtocolOptions
from repro.system.builder import build_machine
from repro.verification.audit import audit_machine
from repro.stats.tables import Table

N = 4
Q, W = 0.10, 0.3


def run(options: ProtocolOptions):
    workload = DuboisBriggsWorkload(
        n_processors=N, q=Q, w=W, private_blocks_per_proc=128, seed=1984
    )
    config = MachineConfig(
        n_processors=N,
        n_modules=2,
        n_blocks=workload.n_blocks,
        protocol="twobit",
        options=options,
    )
    machine = build_machine(config, workload)
    machine.run(refs_per_proc=3000, warmup_refs=500)
    audit_machine(machine).raise_if_failed()
    return machine


def main() -> None:
    base = run(ProtocolOptions())
    base_overhead = base.results().extra_commands_per_ref

    table = Table(
        header=["entries", "hit ratio", "selective cmds", "extra/ref", "eliminated"],
        title=f"Translation buffer capacity sweep (n={N}, q={Q}, w={W}, "
        "16 shared blocks)",
        precision=4,
    )
    table.add_row([0, 0.0, 0, base_overhead, 0.0])
    for capacity in (1, 2, 4, 8, 16, 32):
        machine = run(ProtocolOptions(translation_buffer_entries=capacity))
        stats = machine.translation_buffer_stats()
        overhead = machine.results().extra_commands_per_ref
        eliminated = 1 - overhead / base_overhead if base_overhead else 0.0
        table.add_row(
            [capacity, stats["hit_ratio"], int(stats["selective_commands"]),
             overhead, eliminated]
        )
    print(table.render())

    forced = run(ProtocolOptions(tbuf_forced_hit_ratio=0.9))
    overhead = forced.results().extra_commands_per_ref
    eliminated = 1 - overhead / base_overhead
    print(
        f"\nforced 90% hit ratio -> {eliminated:.0%} of the broadcast "
        "overhead eliminated"
        "\n(the paper: 'if a 90% hit ratio ... could be maintained, 90% of"
        "\nthe added overhead resulting from the broadcasts is eliminated')"
    )


if __name__ == "__main__":
    main()
