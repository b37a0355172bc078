#!/usr/bin/env python3
"""How far does the two-bit scheme scale?  (§4.3, measured.)

Sweeps the sharing level and the processor count, measuring the extra
broadcast commands each cache absorbs per memory reference, and prints
the analytic Table 4-1 values alongside — the experiment behind the
paper's conclusion that the economical directory is viable "with up to
64 processors, assuming a low level of sharing ... up to 16 processors
[moderate] ... 8 or less [high, write-intensive]".

Run:  python examples/sharing_sweep.py
"""

from repro import DuboisBriggsWorkload, MachineConfig
from repro.system.builder import build_machine
from repro.verification.audit import audit_machine
from repro.analysis import PAPER_CASES, generate_threshold_table, per_cache_overhead
from repro.stats.tables import Table

N_VALUES = (2, 4, 8)
SHARING = [("low", 0.01, 0.95), ("moderate", 0.05, 0.90), ("high", 0.10, 0.80)]
W = 0.2
REFS = 3000


def measure(n: int, q: float) -> float:
    workload = DuboisBriggsWorkload(
        n_processors=n, q=q, w=W, private_blocks_per_proc=128, seed=1984
    )
    config = MachineConfig(
        n_processors=n, n_modules=2, n_blocks=workload.n_blocks, protocol="twobit"
    )
    machine = build_machine(config, workload)
    machine.run(refs_per_proc=REFS, warmup_refs=500)
    audit_machine(machine).raise_if_failed()
    return machine.results().extra_commands_per_ref


def main() -> None:
    table = Table(
        header=["sharing"] + [f"n={n}" for n in N_VALUES] + ["model n=16", "model n=64"],
        title=f"Measured extra commands per reference per cache (w={W}), "
        "with the Table 4-1 model extrapolation",
        precision=4,
    )
    for (name, q, _h), case in zip(SHARING, PAPER_CASES):
        row = [name]
        for n in N_VALUES:
            row.append(measure(n, q))
        row.append(per_cache_overhead(16, case, W))
        row.append(per_cache_overhead(64, case, W))
        table.add_row(row)
    print(table.render())
    print()
    print(generate_threshold_table().render())
    print(
        "\nReading: each cache loses roughly one cycle per command it\n"
        "receives; the scheme stays attractive while the number stays\n"
        "below ~1.0 — which the model places at 64/16/8 processors for\n"
        "the three sharing levels, exactly the paper's conclusion."
    )


if __name__ == "__main__":
    main()
