#!/usr/bin/env python3
"""Quickstart: build a 4-processor two-bit machine, run it, audit it.

This is the smallest complete use of the library: a synthetic workload in
the paper's two-stream model, a simulated multiprocessor in the shape of
Figure 3-1, a warm-up phase, a measurement window, aggregated results,
and the coherence audit that every run should end with.

Run:  python examples/quickstart.py
"""

from repro import DuboisBriggsWorkload, MachineConfig
from repro.system.builder import build_machine
from repro.system.topology import describe_machine
from repro.verification.audit import audit_machine


def main() -> None:
    # The paper's workload model: 5% of references go to a 16-block
    # writeable-shared pool, 20% of those are writes.
    workload = DuboisBriggsWorkload(
        n_processors=4,
        q=0.05,
        w=0.2,
        n_shared_blocks=16,
        private_blocks_per_proc=256,
        seed=1984,
    )

    # Figure 3-1: four processor-cache pairs, two controller-memory
    # modules, the two-bit directory protocol over a crossbar.
    config = MachineConfig(
        n_processors=4,
        n_modules=2,
        n_blocks=workload.n_blocks,
        cache_sets=32,
        cache_assoc=4,  # 128-block caches, as in the paper's evaluation
        protocol="twobit",
        network="xbar",
    )
    machine = build_machine(config, workload)

    print(describe_machine(machine))
    print()

    # 1000 warm-up references per processor fill the caches; the next
    # 5000 are measured.
    machine.run(refs_per_proc=5000, warmup_refs=1000)

    results = machine.results()
    print(results.summary())
    print()
    print(
        f"broadcasts sent by the controllers : {results.broadcasts}\n"
        f"invalidations applied at caches    : {results.invalidations_applied}\n"
        f"write-backs absorbed by memory     : {results.writebacks}"
    )

    # The library's definition of success: every read returned the most
    # recently written value, and every directory/cache/memory invariant
    # holds at quiescence.
    audit_machine(machine).raise_if_failed()
    print("\ncoherence audit: CLEAN "
          f"({machine.oracle.reads_checked} reads checked, "
          f"{machine.oracle.writes_committed} writes committed)")


if __name__ == "__main__":
    main()
