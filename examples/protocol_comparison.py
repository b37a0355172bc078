#!/usr/bin/env python3
"""The §2 spectrum of coherence solutions on one workload.

Runs all seven implemented schemes — the static software solution, the
classical write-through broadcast, the Censier-Feautrier full map, the
Yen-Fu local-state extension, the paper's two-bit scheme, and the two
bus snooping protocols (Goodman write-once, Illinois MESI) — on the same
parallel application and prints what each one pays.

Run:  python examples/protocol_comparison.py [q] [w]
"""

import sys

from repro import DuboisBriggsWorkload, MachineConfig
from repro.system.builder import build_machine
from repro.verification.audit import audit_machine
from repro.stats.tables import Table

SCHEMES = [
    ("static", "xbar", "§2.2 software tags, shared data uncached"),
    ("classical", "xbar", "§2.3 write-through, signal every store"),
    ("fullmap", "xbar", "§2.4.2 n+1-bit presence vectors"),
    ("fullmap_local", "xbar", "§2.4.3 + exclusive-clean local state"),
    ("twobit", "xbar", "§3 the economical two-bit directory"),
    ("write_once", "bus", "§2.5 Goodman write-once (bus snoop)"),
    ("illinois", "bus", "§2.5 Papamarcos-Patel MESI (bus snoop)"),
]


def main() -> None:
    q = float(sys.argv[1]) if len(sys.argv) > 1 else 0.05
    w = float(sys.argv[2]) if len(sys.argv) > 2 else 0.2
    n = 4

    table = Table(
        header=["scheme", "cmds/ref", "extra/ref", "stolen/ref", "miss", "latency"],
        title=f"All coherence schemes: n={n}, q={q}, w={w} "
        "(per-cache, per-reference)",
        precision=4,
    )
    notes = []
    for protocol, network, blurb in SCHEMES:
        workload = DuboisBriggsWorkload(
            n_processors=n, q=q, w=w, private_blocks_per_proc=128, seed=1984
        )
        config = MachineConfig(
            n_processors=n,
            n_modules=2,
            n_blocks=workload.n_blocks,
            protocol=protocol,
            network=network,
        )
        machine = build_machine(config, workload)
        machine.run(refs_per_proc=3000, warmup_refs=500)
        audit_machine(machine).raise_if_failed()
        r = machine.results()
        table.add_row(
            [
                protocol,
                r.commands_per_ref,
                r.extra_commands_per_ref,
                r.stolen_cycles_per_ref,
                r.miss_ratio,
                r.avg_latency,
            ]
        )
        notes.append(f"  {protocol:<14} {blurb}")

    print(table.render())
    print()
    print("\n".join(notes))
    print(
        "\nThe two-bit scheme's whole story is the 'extra/ref' column:\n"
        "it pays a broadcast premium over the full map proportional to\n"
        "sharing, in exchange for a directory that costs 2 bits per block\n"
        "regardless of how many processors are attached."
    )


if __name__ == "__main__":
    main()
