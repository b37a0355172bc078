#!/usr/bin/env python3
"""How the reproduction proves its protocols coherent.

The paper closes by saying its protocols "need to be refined (and proven
correct)".  This example tours the library's verification machinery:

1. the version-flow oracle that checks every read online;
2. the quiescent audit that cross-checks directory, caches, memory, and
   translation buffer;
3. the event-order fuzzer (randomized same-cycle tie-breaking) that
   explores interleavings a fixed scheduler never produces;
4. what failure looks like — a deliberately mistagged static-scheme
   workload losing coherence, caught by the oracle.

Run:  python examples/verification_demo.py
"""

from repro import MachineConfig, UniformWorkload
from repro.system.builder import build_machine
from repro.verification.audit import audit_machine
from repro.workloads.reference import MemRef, Op
from repro.workloads.synthetic import ScriptedWorkload


def clean_run() -> None:
    print("== 1+2: oracle + quiescent audit on a contended run ==")
    workload = UniformWorkload(n_processors=4, n_blocks=8, write_frac=0.5, seed=1)
    config = MachineConfig(
        n_processors=4, n_modules=2, n_blocks=8, cache_sets=2, cache_assoc=2,
        protocol="twobit",
    )
    machine = build_machine(config, workload)
    machine.run(refs_per_proc=2000)
    report = audit_machine(machine)
    print(
        f"  reads checked  : {machine.oracle.reads_checked}\n"
        f"  writes committed: {machine.oracle.writes_committed}\n"
        f"  audit           : {'CLEAN' if report.ok else 'FAILED'}"
    )


def fuzzed_runs() -> None:
    print("\n== 3: event-order fuzzing (tie_seed) ==")
    for tie_seed in (1, 2, 3, 4, 5):
        workload = UniformWorkload(
            n_processors=4, n_blocks=8, write_frac=0.5, seed=tie_seed
        )
        config = MachineConfig(
            n_processors=4, n_modules=2, n_blocks=8, cache_sets=2,
            cache_assoc=2, protocol="twobit", tie_seed=tie_seed,
        )
        machine = build_machine(config, workload)
        machine.run(refs_per_proc=800)
        audit_machine(machine).raise_if_failed()
        cancels = sum(
            c.counters["mrequests_cancelled"] for c in machine.controllers
        )
        revokes = sum(
            c.counters["clean_ejects_revoked"] for c in machine.caches
        )
        print(
            f"  tie_seed={tie_seed}: CLEAN "
            f"(race defences fired: {int(cancels)} MREQ cancels, "
            f"{int(revokes)} eject revokes)"
        )
    print(
        "  (randomizing same-cycle event order found the write-through\n"
        "   linearization hazard — DESIGN.md ambiguity #8 — during\n"
        "   development; these runs keep exploring such orderings)"
    )


def broken_run() -> None:
    print("\n== 4: what a violation looks like ==")
    # The static scheme trusts compile-time tags.  Mistag a genuinely
    # shared block as private and two caches hold divergent copies.
    filler = [MemRef(1, Op.READ, b, shared=False) for b in (0, 2, 4, 0, 2)]
    scripts = [
        [MemRef(0, Op.READ, 1, shared=False), MemRef(0, Op.WRITE, 1, shared=False)],
        filler + [MemRef(1, Op.READ, 1, shared=False)],
    ]
    config = MachineConfig(
        n_processors=2, n_modules=1, n_blocks=8, cache_sets=2, cache_assoc=2,
        protocol="static",
        strict_coherence=False,  # record instead of raising, for the demo
    )
    machine = build_machine(config, ScriptedWorkload(scripts))
    machine.run(refs_per_proc=10)
    print("  oracle violations recorded:")
    for violation in machine.oracle.violations:
        print(f"    {violation}")
    print(
        "  -> exactly §2.2's warning: the software solution is unsound\n"
        "     the moment the tags (or process placement) lie."
    )


def main() -> None:
    clean_run()
    fuzzed_runs()
    broken_run()


if __name__ == "__main__":
    main()
