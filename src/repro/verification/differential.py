"""Differential conformance harness: every protocol vs the full-map.

Replays one reference stream through every registered protocol in
*lockstep* — each reference is driven to completion and the machine fully
drained before the next is issued.  Under that serial order the visible
behaviour of any correct coherence protocol is fully determined: every
read must return the most recently committed version of its block, every
block's effective final value (the dirty cached copy if one exists, else
memory) must be the last write's version, and the quiescent audit must be
clean.  The full-map directory (Censier-Feautrier) is the reference
implementation; any divergence from it is a bug in one of the two.

Note the lockstep restriction is what makes raw equality a theorem —
under *concurrent* replay different protocols may legally serialize
racing writes differently.  Concurrent-schedule checking is the model
checker's job (:mod:`repro.verification.model_check`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import MachineConfig
from repro.faults.inject import attach_faults
from repro.faults.plan import FAULT_PROTOCOLS, FaultSpec
from repro.protocols import registry
from repro.verification.audit import audit_machine
from repro.workloads.reference import MemRef, Op
from repro.workloads.synthetic import ScriptedWorkload


@dataclass
class ProtocolTrace:
    """Observable behaviour of one protocol on one reference stream."""

    protocol: str
    #: (stream index, pid, block, observed version) for every read.
    reads: List[Tuple[int, int, int, int]]
    #: block -> effective final version (dirty copy wins over memory).
    finals: Dict[int, int]
    audit_violations: List[str]


@dataclass
class Divergence:
    """One behavioural difference from the reference protocol."""

    protocol: str
    kind: str  # read | final | audit
    detail: str


@dataclass
class DifferentialReport:
    """Cross-protocol comparison for one reference stream."""

    reference: str
    n_refs: int
    traces: Dict[str, ProtocolTrace]
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def render(self) -> str:
        lines = [
            f"differential: {len(self.traces)} protocols x {self.n_refs} refs "
            f"(reference: {self.reference})"
        ]
        if self.ok:
            lines.append("  all protocols agree")
        for div in self.divergences:
            lines.append(f"  {div.protocol}: [{div.kind}] {div.detail}")
        return "\n".join(lines)


def random_refs(
    seed: int,
    n_processors: int = 2,
    n_blocks: int = 2,
    n_ops: int = 12,
    write_frac: float = 0.5,
) -> List[MemRef]:
    """A seed-derived serial reference stream (all shared blocks)."""
    rng = random.Random(f"differential-{seed}")
    return [
        MemRef(
            pid=rng.randrange(n_processors),
            op=Op.WRITE if rng.random() < write_frac else Op.READ,
            block=rng.randrange(n_blocks),
            shared=True,
        )
        for _ in range(n_ops)
    ]


def _build_lockstep_machine(
    protocol: str, n_processors: int, n_blocks: int,
    cache_sets: int, cache_assoc: int, options=None, n_modules: int = 1,
):
    # NOTE: imported here, not at module scope — the system builder
    # imports the component classes whose modules import this package
    # back through repro.verification's __init__.
    from repro.system.builder import build_machine

    spec = registry.resolve(protocol)
    kwargs = {} if options is None else {"options": options}
    config = MachineConfig(
        n_processors=n_processors,
        n_modules=n_modules,
        n_blocks=n_blocks,
        cache_sets=cache_sets,
        cache_assoc=cache_assoc,
        protocol=spec.name,
        network=spec.default_network(),
        strict_coherence=True,
        **kwargs,
    )
    # Empty scripts: the harness drives the caches directly.
    workload = ScriptedWorkload([[] for _ in range(n_processors)])
    return build_machine(config, workload)


def run_lockstep(
    protocol: str,
    refs: Sequence[MemRef],
    cache_sets: int = 2,
    cache_assoc: int = 2,
    faults: Optional[FaultSpec] = None,
    options=None,
    n_modules: int = 1,
) -> ProtocolTrace:
    """Drive ``refs`` serially (full drain between ops) through ``protocol``.

    With ``faults``, deliveries are perturbed and controllers may NAK,
    but each reference is still drained to completion — so the lockstep
    theorem is unchanged: observable reads and finals must match the
    fault-free reference exactly, which makes this harness a recovery
    conformance check as well.

    The harness drives the caches directly through ``cache.access()``,
    so every reference — hits included — runs the protocol's own
    ``_classify`` rather than the processors' transition table.
    """
    n_processors = max(r.pid for r in refs) + 1 if refs else 1
    n_blocks = max(r.block for r in refs) + 1 if refs else 1
    machine = _build_lockstep_machine(
        protocol, n_processors, n_blocks, cache_sets, cache_assoc,
        options=options, n_modules=n_modules,
    )
    if faults is not None:
        attach_faults(machine, faults)
    reads: List[Tuple[int, int, int, int]] = []
    for index, ref in enumerate(refs):
        results: list = []
        machine.caches[ref.pid].access(ref, results.append)
        machine.sim.run(max_events=100_000)
        if len(results) != 1:
            raise RuntimeError(
                f"{protocol}: reference {index} ({ref}) did not complete"
            )
        if not ref.is_write:
            reads.append((index, ref.pid, ref.block, results[0].version))
    finals: Dict[int, int] = {}
    for block in range(n_blocks):
        version = machine.modules[machine.amap.home(block)].peek(block)
        for cache in machine.caches:
            array = getattr(cache, "array", None)
            line = array.lookup(block) if array is not None else None
            if line is not None and line.modified:
                version = line.version
        finals[block] = version
    report = audit_machine(machine)
    return ProtocolTrace(
        protocol=registry.canonical_name(protocol),
        reads=reads,
        finals=finals,
        audit_violations=list(report.violations),
    )


def run_differential(
    refs: Sequence[MemRef],
    protocols: Optional[Sequence[str]] = None,
    reference: str = "fullmap",
    cache_sets: int = 2,
    cache_assoc: int = 2,
    faults: Optional[FaultSpec] = None,
    options=None,
    n_modules: int = 1,
) -> DifferentialReport:
    """Replay ``refs`` through every protocol and diff against ``reference``.

    With ``faults``, only the protocols with a recovery path
    (:data:`~repro.faults.plan.FAULT_PROTOCOLS`) are driven — the bus and
    wired-line protocols model transports whose correctness argument
    excludes message-level faults.
    """
    names = list(protocols) if protocols is not None else list(
        registry.protocol_names()
    )
    if faults is not None:
        names = [
            n for n in names if registry.canonical_name(n) in FAULT_PROTOCOLS
        ]
        if not names:
            raise ValueError(
                "no fault-capable protocol selected; choose from "
                f"{FAULT_PROTOCOLS}"
            )
    reference = registry.canonical_name(reference)
    if reference not in names:
        names.insert(0, reference)
    traces = {
        name: run_lockstep(
            name,
            refs,
            cache_sets=cache_sets,
            cache_assoc=cache_assoc,
            faults=faults,
            options=options,
            n_modules=n_modules,
        )
        for name in (registry.canonical_name(n) for n in names)
    }
    report = DifferentialReport(
        reference=reference, n_refs=len(refs), traces=traces
    )
    report.divergences.extend(compare_traces(traces[reference], traces))
    return report


def compare_traces(
    base: ProtocolTrace, traces: Dict[str, ProtocolTrace]
) -> List[Divergence]:
    """Diff every trace against the reference trace ``base``."""
    divergences: List[Divergence] = []
    for name, trace in traces.items():
        for violation in trace.audit_violations:
            divergences.append(Divergence(name, "audit", violation))
        if name == base.protocol:
            continue
        for (bi, bp, bb, bv), (ti, tp, tb, tv) in zip(base.reads, trace.reads):
            if (bi, bp, bb, bv) != (ti, tp, tb, tv):
                divergences.append(
                    Divergence(
                        name,
                        "read",
                        f"ref {ti} (P{tp} R{tb}) observed v{tv}, "
                        f"reference observed v{bv}",
                    )
                )
        for block, version in trace.finals.items():
            if base.finals.get(block) != version:
                divergences.append(
                    Divergence(
                        name,
                        "final",
                        f"block {block} final v{version}, reference "
                        f"v{base.finals.get(block)}",
                    )
                )
    return divergences
