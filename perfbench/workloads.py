"""The benchmark's four workloads, driven through the public API.

Every workload reports the same end-to-end metrics, each by its role
(:data:`END_TO_END`): ``ops_per_s`` is the rate of the workload's main
path, ``variant_ops_per_s`` the rate of its second path and
``faulted_ops_per_s`` the rate of its main work under the ``light``
fault plan.  Each :class:`Workload` says what they count on it;
the three legs of a repetition run back to back, in rotating order, so
they see the same host.  Every traced run reports the same per-layer
metrics (:data:`PER_LAYER`).  Metrics only one workload has (simulated
statistics, checkpoint, model-checking and runner figures) are printed
by name as details but are not part of the result line.

Each ``run_*`` function is a closed loop: one driving process issues
the next repetition only when the previous one returned.  It measures
for ``seconds`` of host wall time (and at least the minimum number of
repetitions its statistics need), checks every output through the
:class:`~harness.Tally`, and returns ``name -> (value, unit)``.  Each
``trace_*`` function runs the traced twin of that work and returns the
per-layer metrics with the tracers that recorded them.  README.md says
why each workload exists.

Host times are wall time on ``time.perf_counter``, scaled to a
reference host speed by :class:`~harness.HostClock` (the sweeps by
:func:`sweep_rep`), except in traced runs, which time plain wall time
so that no calibration kernel runs inside their spans.  Simulated figures are outputs of the
model and repeat exactly for a seed.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import time
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

from repro import checkpoint
from repro.api import Experiment, run_point
from repro.faults import parse_faults
from repro.runner.seeds import derive_seed
from repro.verification import model_check
from repro.verification.audit import audit_machine
from repro.verification.fingerprint import machine_fingerprint
from repro.workloads.synthetic import DuboisBriggsWorkload
from repro.workloads.traces import record_stream, write_trace

from calibrate import REFERENCE_S, parallel_calibration_s
from harness import Checks, HostClock, Tally, mean, median
from tracer import STREAM_SPAN, Tracer

Metrics = Dict[str, Tuple[float, str]]
#: A run's clock (with its calibrations) and metrics.
Measured = Tuple[HostClock, Metrics]
#: A traced run's clock, per-layer metrics and tracers by label.
Traced = Tuple[HostClock, Metrics, Dict[str, Tracer]]

#: End-to-end metrics every workload reports with ``--trace 0``.
END_TO_END = ("ops_per_s", "variant_ops_per_s", "faulted_ops_per_s",
              "setup_s", "peak_rss_mb")

#: Per-layer metrics every workload reports with ``--trace 1``.
PER_LAYER = (
    "sim.self_s", "sim.events", "sim.ns_per_event",
    "protocols.self_s", "protocols.accesses",
    "interconnect.self_s", "interconnect.messages",
    "core.self_s", "core.deliveries",
    "cache.self_s", "cache.lookups", "cache.fills",
    "memory.self_s", "memory.accesses",
    "verification.oracle.self_s", "verification.oracle.checks",
    "workloads.self_s", "workloads.refs",
    "system.build_s", "system.builds",
    "faults.self_s", "faults.on_deliver_calls",
    "trace.overhead_ratio",
)

#: Machine seeds per run.  Every run derives this many seeds from
#: ``--seed`` and cycles its repetitions through them.
SEEDS_PER_RUN = 8

#: Repetitions of the main leg in a traced run (untraced and traced twins).
TRACE_REPS = 2


def sub_seeds(seed: int, workload: str) -> List[int]:
    return [
        derive_seed(seed, workload, k) % (1 << 31) for k in range(SEEDS_PER_RUN)
    ]


def light_faults(seed: int) -> str:
    return f"light,seed={seed}"


def closed_loop(seconds: float, min_reps: int,
                rep: Callable[[int], None]) -> None:
    """Call ``rep(0)``, ``rep(1)``, ... back to back: at least
    ``min_reps`` times, then while the next one, as long as the last,
    still ends within ``seconds`` of the start."""
    start = time.perf_counter()
    done = 0
    last = 0.0
    while (done < min_reps
           or time.perf_counter() - start + last <= seconds):
        began = time.perf_counter()
        rep(done)
        last = time.perf_counter() - began
        done += 1


def rates(values: Dict[str, List[float]], legs: Sequence[str]) -> Metrics:
    """The three role metrics from per-leg samples, in ``legs`` order
    (main, variant, faulted)."""
    return {
        role: (median(values[leg]), "1/s")
        for role, leg in zip(END_TO_END[:3], legs)
    }


# ----------------------------------------------------------------------
# Shared machine helpers
# ----------------------------------------------------------------------
def warmed(experiment: Experiment, warmup: int, instrument: bool = False):
    """A built machine that has run its warm-up and opened its window."""
    machine, _ = experiment.build(instrument=instrument)
    machine.run(refs_per_proc=warmup)
    machine.reset_measurement()
    return machine


def window(machine, refs_per_proc: int) -> Callable[[], None]:
    """The measurement window of a warmed machine, as a unit to time."""
    return partial(machine.run, refs_per_proc=refs_per_proc)


def check_repeat(checks: Checks, reference: dict, key, results, fingerprint) -> None:
    """The first run of ``key`` is the reference; every later run —
    a repetition, an instrumented or a traced twin — must match it."""
    if key not in reference:
        reference[key] = (results, fingerprint)
        return
    checks.equal(fingerprint, reference[key][1], "machine_fingerprint")
    checks.equal(results, reference[key][0], "simulated results")


def settle(checks: Checks, reference: dict, key, machine) -> Tuple[dict, str]:
    """Check a finished window; returns its results and fingerprint.

    The first machine of ``key`` is audited and becomes the reference.
    A later one must reproduce its fingerprint and results exactly, so
    it is the audited machine again and needs no audit of its own (an
    n=64 audit costs about twice the window it checks).
    """
    if key not in reference:
        audit = audit_machine(machine)
        checks.check(audit.ok, "audit: " + "; ".join(audit.violations[:3]))
    results = machine.results().to_dict()
    fingerprint = machine_fingerprint(machine)
    check_repeat(checks, reference, key, results, fingerprint)
    return results, fingerprint


def rotate(items: Sequence, by: int) -> List:
    by %= len(items)
    return list(items[by:]) + list(items[:by])


def simulated(runs: Sequence[dict]) -> Metrics:
    """Mean simulated statistics over the seeds a run measured."""
    return {
        "sim_latency_cycles": (mean([r["avg_latency"] for r in runs]),
                               "cycles"),
        "extra_cmds_per_ref": (
            mean([r["extra_commands_per_ref"] for r in runs]), "1/ref"),
    }


# ----------------------------------------------------------------------
# Per-layer metrics from spans
# ----------------------------------------------------------------------
def ledger(tracer: Tracer, mark: int, events: int) -> Metrics:
    """The machine layers' self times and call counts of the spans from
    ``mark`` on; ``events`` is the kernel's event count over them."""
    own = tracer.layer_self(mark)
    calls = tracer.counts(mark)
    sim_s = own.get("sim", 0.0)
    return {
        "sim.self_s": (sim_s, "s"),
        "sim.events": (events, "count"),
        "sim.ns_per_event": (sim_s / max(events, 1) * 1e9, "ns"),
        "protocols.self_s": (own.get("protocols", 0.0), "s"),
        "protocols.accesses": (
            calls["DirectoryCacheController.access"]
            + calls["DirectoryCacheController.deliver"], "count"),
        "interconnect.self_s": (own.get("interconnect", 0.0), "s"),
        "interconnect.messages": (
            calls["Network.send"] + calls["Network.broadcast"], "count"),
        "core.self_s": (own.get("core", 0.0), "s"),
        "core.deliveries": (calls["TwoBitDirectoryController.deliver"],
                            "count"),
        "cache.self_s": (own.get("cache", 0.0), "s"),
        "cache.lookups": (calls["CacheArray.lookup"], "count"),
        "cache.fills": (calls["CacheArray.fill"], "count"),
        "memory.self_s": (own.get("memory", 0.0), "s"),
        "memory.accesses": (
            calls["MemoryModule.read"] + calls["MemoryModule.write"], "count"),
        "verification.oracle.self_s": (own.get("verification.oracle", 0.0),
                                       "s"),
        "verification.oracle.checks": (
            calls["CoherenceOracle.check_read"]
            + calls["CoherenceOracle.commit_write"], "count"),
        "workloads.self_s": (own.get("workloads", 0.0), "s"),
        "workloads.refs": (calls[STREAM_SPAN], "count"),
    }


def fault_layers(tracer: Tracer, mark: int = 0, machine=None) -> Metrics:
    """The fault injector's self time and calls; with a finished faulted
    ``machine``, its NAK and retry counts as details."""
    metrics = {
        "faults.self_s": (tracer.layer_self(mark).get("faults", 0.0), "s"),
        "faults.on_deliver_calls": (
            tracer.counts(mark)["FaultInjector.on_deliver"], "count"),
    }
    if machine is not None:
        registry = machine.registry
        metrics["faults.naks"] = (registry.total("naks_sent"), "count")
        metrics["faults.retries"] = (registry.total("retries_sent"), "count")
    return metrics


def build_layers(tracer: Tracer) -> Metrics:
    return {
        "system.build_s": (tracer.total("builder.build_machine"), "s"),
        "system.builds": (tracer.counts()["builder.build_machine"], "count"),
    }


def machine_details(machine) -> Metrics:
    """Broadcast counters of one finished machine, printed as details."""
    caches = machine.caches
    snoops = sum(c.counters.get("snoop_commands") for c in caches)
    useless = sum(c.counters.get("broadcast_useless") for c in caches)
    return {
        "core.broadcasts": (machine.results().broadcasts, "count"),
        "interconnect.useless_share": (useless / max(snoops, 1), "ratio"),
    }


def overhead(times: Dict[bool, List[float]]) -> Metrics:
    return {"trace.overhead_ratio": (median(times[True]) / median(times[False]),
                                     "ratio")}


def traced_window(clock: HostClock, tracer: Tracer, make_machine: Callable,
                  refs_per_proc: int):
    """Build and run one window with spans installed from before the
    build; returns ``(machine, scaled_s, first window span, events)``."""
    with tracer:
        machine = make_machine()
        mark = tracer.mark()
        before = machine.sim.events_processed
        [(seconds, _)] = clock.time(window(machine, refs_per_proc))
    return machine, seconds, mark, machine.sim.events_processed - before


def untraced_window(clock: HostClock, make_machine: Callable,
                    refs_per_proc: int):
    """``(machine, scaled_s)`` of one window without spans."""
    machine = make_machine()
    [(seconds, _)] = clock.time(window(machine, refs_per_proc))
    return machine, seconds


def traced_setup(tally: Tally, workload: str, seed: int, workdir: str) -> Tracer:
    """The workload's cold set-up, in this process, with spans installed."""
    tracer = Tracer()
    with tally.op(f"{workload} traced set-up"):
        with tracer:
            SETUPS[workload](seed, workdir)
    return tracer


# ----------------------------------------------------------------------
# dubois_n4: the paper's headline machine, three legs
# ----------------------------------------------------------------------
N4 = dict(protocol="twobit", n_processors=4, n_modules=2, network="xbar",
          q=0.05, w=0.2, engine="compiled")
N4_WARMUP = 500
N4_WINDOW = 10000
#: Main, variant and faulted leg.
N4_LEGS = ("bare", "instrumented", "faulted")
N4_MIN_REPS = 3


def n4_machine(seed: int, leg: str):
    faults = light_faults(seed) if leg == "faulted" else None
    experiment = Experiment(seed=seed, faults=faults, **N4)
    return warmed(experiment, N4_WARMUP, instrument=leg == "instrumented")


def n4_key(seed: int, leg: str):
    # Instrumentation and tracing only observe, so every fault-free leg
    # of a seed must reproduce the same machine.
    return (seed, "faulted" if leg == "faulted" else "fault-free")


def run_dubois_n4(seed: int, seconds: float, tally: Tally,
                  workdir: str) -> Measured:
    seeds = sub_seeds(seed, "dubois_n4")
    samples: Dict[str, List[float]] = {leg: [] for leg in N4_LEGS}
    reference: dict = {}
    clock = HostClock()

    def rep(i: int) -> None:
        s = seeds[i % len(seeds)]
        legs = rotate(N4_LEGS, i)
        with tally.op(f"dubois_n4 seed={s}") as checks:
            machines = [n4_machine(s, leg) for leg in legs]
            timed = clock.time(*(window(m, N4_WINDOW) for m in machines))
            for leg, machine, (took, _) in zip(legs, machines, timed):
                results, _ = settle(checks, reference, n4_key(s, leg),
                                    machine)
                samples[leg].append(results["total_refs"] / took)

    closed_loop(seconds, N4_MIN_REPS, rep)
    metrics = rates(samples, N4_LEGS)
    metrics.update(simulated([
        reference[n4_key(s, "bare")][0] for s in seeds
        if n4_key(s, "bare") in reference]))
    return clock, metrics


def trace_dubois_n4(seed: int, tally: Tally, workdir: str) -> Traced:
    setup = traced_setup(tally, "dubois_n4", seed, workdir)
    s = sub_seeds(seed, "dubois_n4")[0]
    reference: dict = {}
    clock = HostClock(scaled=False)
    times: Dict[bool, List[float]] = {False: [], True: []}
    last: Dict[str, tuple] = {}
    for leg in N4_LEGS:
        # Only the bare leg is timed against its traced twin.
        for rep in range(TRACE_REPS if leg == "bare" else 1):
            with tally.op(f"dubois_n4 {leg} untraced seed={s}") as checks:
                machine, took = untraced_window(
                    clock, lambda: n4_machine(s, leg), N4_WINDOW)
                settle(checks, reference, n4_key(s, leg), machine)
                if leg == "bare":
                    times[False].append(took)
            with tally.op(f"dubois_n4 {leg} traced seed={s}") as checks:
                tracer = Tracer()
                machine, took, mark, events = traced_window(
                    clock, tracer, lambda: n4_machine(s, leg), N4_WINDOW)
                settle(checks, reference, n4_key(s, leg), machine)
                if leg == "bare":
                    times[True].append(took)
                last[leg] = (tracer, mark, machine, events)
    tracer, mark, machine, events = last["bare"]
    metrics = ledger(tracer, mark, events)
    metrics.update(build_layers(setup))
    metrics.update(overhead(times))
    metrics.update(machine_details(machine))
    metrics.update(fault_layers(*last["faulted"][:3]))
    tracer, mark = last["instrumented"][:2]
    metrics["obs.self_s"] = (tracer.layer_self(mark).get("obs", 0.0), "s")
    tracers = {"setup": setup}
    tracers.update((leg, last[leg][0]) for leg in N4_LEGS)
    return clock, metrics, tracers


# ----------------------------------------------------------------------
# trace_n64: streaming trace replay at n=64 plus checkpoint round trips
# ----------------------------------------------------------------------
N64 = dict(protocol="twobit", n_processors=64, n_modules=8, network="xbar",
           engine="compiled")
N64_WARMUP = 50
N64_WINDOW = 200
#: Windows each machine runs per repetition, each timed as its own unit:
#: the machines' build, warm-up and checks are paid once for all of them.
N64_WINDOWS = 4
#: Trace refs per processor beyond warm-up and windows, so the
#: checkpointed machine is mid-trace.
N64_TAIL = 50
#: Main (replay), variant (checkpoint round trip) and faulted leg.
N64_LEGS = ("replay", "checkpoint", "faulted")
N64_MIN_REPS = 2
#: Checkpoint round trips per repetition, each its own timed unit.
N64_ROUNDTRIPS = 6


def n64_trace_path(workdir: str) -> str:
    return os.path.join(workdir, "n64.trace")


def write_n64_trace(seed: int, workdir: str) -> str:
    """Generate (untimed) the moderate-sharing trace of one seed."""
    path = n64_trace_path(workdir)
    workload = DuboisBriggsWorkload(64, q=0.05, w=0.2, seed=seed)
    refs = N64_WARMUP + N64_WINDOWS * N64_WINDOW + N64_TAIL
    write_trace(path, record_stream(workload, refs))
    return path


def n64_machine(seed: int, path: str, faulted: bool = False):
    experiment = Experiment(seed=seed, workload=f"trace:{path}",
                            faults=light_faults(seed) if faulted else None,
                            **N64)
    return warmed(experiment, N64_WARMUP)


def checkpoint_roundtrip(machine, workdir: str) -> Callable[[], object]:
    """Save and load ``machine``, as a unit to time; it returns the
    restored machine."""
    path = os.path.join(workdir, "n64.ckpt")
    return lambda: checkpoint.load(checkpoint.save(machine, path))


def check_restored(checks: Checks, restored, fingerprint: str) -> None:
    checks.equal(machine_fingerprint(restored), fingerprint,
                 "restored checkpoint fingerprint")


def run_trace_n64(seed: int, seconds: float, tally: Tally,
                  workdir: str) -> Measured:
    # One trace seed per run: every repetition after the first replays
    # the audited machines again (see :func:`settle`).
    s = sub_seeds(seed, "trace_n64")[0]
    path = write_n64_trace(s, workdir)
    window_refs = N64["n_processors"] * N64_WINDOW
    samples: Dict[str, List[float]] = {leg: [] for leg in N64_LEGS}
    reference: dict = {}
    clock = HostClock()

    def rep(i: int) -> None:
        with tally.op(f"trace_n64 seed={s} rep {i}") as checks:
            machines = {"replay": n64_machine(s, path),
                        "faulted": n64_machine(s, path, faulted=True)}
            # The replay and faulted windows alternate, in an order that
            # flips every repetition.
            order = rotate(("replay", "faulted"), i)
            timed = clock.time(*(window(machines[leg], N64_WINDOW)
                                 for _ in range(N64_WINDOWS) for leg in order))
            for (took, _), leg in zip(timed, order * N64_WINDOWS):
                samples[leg].append(window_refs / took)
            fingerprints = {}
            for leg, machine in machines.items():
                results, fingerprints[leg] = settle(checks, reference, leg,
                                                    machine)
                checks.equal(results["total_refs"], N64_WINDOWS * window_refs,
                             f"{leg} refs measured")
            # Then the replayed machine, now mid-trace, makes its round
            # trips, each checked and dropped before the next.
            for _ in range(N64_ROUNDTRIPS):
                [(took, restored)] = clock.time(
                    checkpoint_roundtrip(machines["replay"], workdir))
                samples["checkpoint"].append(1.0 / took)
                check_restored(checks, restored, fingerprints["replay"])

    closed_loop(seconds, N64_MIN_REPS, rep)
    metrics = rates(samples, N64_LEGS)
    metrics["checkpoint_roundtrip_s"] = (
        median([1.0 / r for r in samples["checkpoint"]]), "s")
    if "replay" in reference:
        metrics.update(simulated([reference["replay"][0]]))
    return clock, metrics


def trace_trace_n64(seed: int, tally: Tally, workdir: str) -> Traced:
    s = sub_seeds(seed, "trace_n64")[0]
    path = write_n64_trace(s, workdir)
    setup = traced_setup(tally, "trace_n64", seed, workdir)
    reference: dict = {}
    clock = HostClock(scaled=False)
    times: Dict[bool, List[float]] = {False: [], True: []}
    last = None
    for rep in range(TRACE_REPS):
        with tally.op(f"trace_n64 untraced seed={s}") as checks:
            machine, took = untraced_window(
                clock, lambda: n64_machine(s, path), N64_WINDOW)
            settle(checks, reference, s, machine)
            times[False].append(took)
        with tally.op(f"trace_n64 traced seed={s}") as checks:
            tracer = Tracer()
            machine, took, mark, events = traced_window(
                clock, tracer, lambda: n64_machine(s, path), N64_WINDOW)
            _, fp = settle(checks, reference, s, machine)
            with tracer:
                restored = checkpoint_roundtrip(machine, workdir)()
            check_restored(checks, restored, fp)
            times[True].append(took)
            last = (tracer, mark, machine, events)
    faulted_tracer = Tracer()
    with tally.op(f"trace_n64 faulted traced seed={s}") as checks:
        faulted, _, _, _ = traced_window(
            clock, faulted_tracer, lambda: n64_machine(s, path, faulted=True),
            N64_WINDOW)
        settle(checks, reference, "faulted", faulted)
    tracer, mark, machine, events = last
    metrics = ledger(tracer, mark, events)
    metrics.update(build_layers(setup))
    metrics.update(fault_layers(faulted_tracer))
    metrics.update(overhead(times))
    metrics.update(machine_details(machine))
    metrics.update({
        "checkpoint.save_s": (tracer.total("checkpoint.save"), "s"),
        "checkpoint.load_s": (tracer.total("checkpoint.load"), "s"),
        "checkpoint.bytes": (
            os.path.getsize(os.path.join(workdir, "n64.ckpt")), "bytes"),
    })
    return clock, metrics, {"setup": setup, "window": tracer,
                            "faulted": faulted_tracer}


# ----------------------------------------------------------------------
# check_deep: exhaustive model checking of the pinned deep scenarios
# ----------------------------------------------------------------------
#: Pinned by name so later changes to the deep tier cannot silently
#: change the work measured.
CHECK_SCENARIOS = ("smoke-2p1b", "2p2b", "3p1b", "evict-1frame",
                   "mreq-cancel-late")
#: The faulted leg skips the three-processor scenario, whose faulted
#: search alone takes longer than the other legs together.
CHECK_FAULTED_SCENARIOS = ("smoke-2p1b", "2p2b", "evict-1frame",
                           "mreq-cancel-late")
#: Main leg (the two-bit protocol), variant leg (the full-map baseline
#: over the same scenarios) and faulted leg (two-bit, ``light`` faults).
CHECK_LEGS = ("twobit", "fullmap", "faulted")
CHECK_MIN_REPS = 2


def pinned_scenarios(names: Sequence[str] = CHECK_SCENARIOS) -> list:
    by_name = {s.name: s for s in model_check.DEEP_SCENARIOS}
    return [by_name[name] for name in names]


def check_unit(leg: str, fault_seed: int) -> Callable:
    """A leg's exhaustive check, as a unit to time."""
    if leg == "faulted":
        return partial(model_check.check_protocol, "twobit",
                       scenarios=pinned_scenarios(CHECK_FAULTED_SCENARIOS),
                       faults=parse_faults(light_faults(fault_seed)))
    return partial(model_check.check_protocol, leg,
                   scenarios=pinned_scenarios())


def check_results(checks: Checks, reference: dict, key, results) -> int:
    """Every scenario must pass exhausted, and a repeated search must
    explore the same schedules and states; returns the schedules run."""
    for result in results:
        checks.check(result.ok and result.exhausted, result.summary())
    shape = [(r.scenario, r.schedules_run, r.states_seen) for r in results]
    if key in reference:
        checks.equal(shape, reference[key], "schedules and states explored")
    else:
        reference[key] = shape
    return sum(r.schedules_run for r in results)


def check_leg(clock: HostClock, checks: Checks, reference: dict, leg: str,
              fault_seed: int):
    """One leg, timed; returns ``(scaled seconds, schedules, results)``."""
    [(took, results)] = clock.time(check_unit(leg, fault_seed))
    key = (leg, fault_seed if leg == "faulted" else None)
    return took, check_results(checks, reference, key, results), results


def run_check_deep(seed: int, seconds: float, tally: Tally,
                   workdir: str) -> Measured:
    # The fault-free searches over pinned scripts have no random input;
    # the seed drives the faulted leg's fault plan.
    seeds = sub_seeds(seed, "check_deep")
    samples: Dict[str, List[float]] = {leg: [] for leg in CHECK_LEGS}
    check_s: List[float] = []
    reference: dict = {}
    clock = HostClock()

    def rep(i: int) -> None:
        with tally.op(f"check_deep rep {i}") as checks:
            for leg in rotate(CHECK_LEGS, i):
                took, schedules, _ = check_leg(
                    clock, checks, reference, leg, seeds[i % len(seeds)])
                samples[leg].append(schedules / took)
                if leg == "twobit":
                    check_s.append(took)

    closed_loop(seconds, CHECK_MIN_REPS, rep)
    metrics = rates(samples, CHECK_LEGS)
    metrics["check_s"] = (median(check_s), "s")
    return clock, metrics


def trace_check_deep(seed: int, tally: Tally, workdir: str) -> Traced:
    fault_seed = sub_seeds(seed, "check_deep")[0]
    reference: dict = {}
    clock = HostClock(scaled=False)
    times: Dict[bool, List[float]] = {False: [], True: []}
    tracer = Tracer()
    results: list = []
    for rep in range(TRACE_REPS):
        with tally.op("check_deep untraced pass") as checks:
            took, _, _ = check_leg(clock, checks, reference, "twobit", 0)
            times[False].append(took)
        tracer = Tracer()
        with tally.op("check_deep traced pass") as checks:
            with tracer:
                took, _, results = check_leg(clock, checks, reference,
                                             "twobit", 0)
            times[True].append(took)
    faulted_tracer = Tracer()
    with tally.op("check_deep faulted traced pass") as checks:
        with faulted_tracer:
            check_leg(clock, checks, reference, "faulted", fault_seed)
    own = tracer.layer_self()
    steps = tracer.counts()["Simulator.step_select"]
    states = sum(r.states_seen for r in results)
    metrics = ledger(tracer, 0, steps)
    metrics.update(build_layers(tracer))
    metrics.update(fault_layers(faulted_tracer))
    metrics.update(overhead(times))
    metrics.update({
        "verification.model_check.self_s": (
            own.get("verification.model_check", 0.0), "s"),
        "verification.fingerprint.self_s": (
            own.get("verification.fingerprint", 0.0), "s"),
        "model_check.schedules": (
            sum(r.schedules_run for r in results), "count"),
        "model_check.states": (states, "count"),
        "model_check.new_state_ratio": (states / max(steps, 1), "ratio"),
    })
    return clock, metrics, {"check": tracer, "faulted": faulted_tracer}


# ----------------------------------------------------------------------
# sweep_tiny: a grid of tiny points through both local schedulers
# ----------------------------------------------------------------------
SWEEP = dict(protocol="twobit", n_processors=2, n_modules=1,
             refs_per_proc=10, warmup_refs=0, engine="compiled")
SWEEP_WORKERS = 2
SWEEP_AXIS_POINTS = 16
#: Main (default scheduler), variant (elastic scheduler) and faulted
#: leg (default scheduler, the grid under ``light`` faults).
SWEEP_LEGS = ("default", "elastic", "faulted")
SWEEP_MIN_REPS = 2
#: Points per sweep re-run inline and compared with the sweep's result.
SWEEP_INLINE_SAMPLES = 3
#: Points a traced run re-runs inline, traced and untraced.
SWEEP_TRACE_SAMPLES = 16


def sweep_grid(seed: int):
    """A seeded 16 x 16 grid of (q, w) sharing levels."""
    rng = random.Random(seed)
    return {
        "q": sorted(rng.sample([i / 100 for i in range(1, 41)],
                               SWEEP_AXIS_POINTS)),
        "w": sorted(rng.sample([i / 100 for i in range(2, 100, 4)],
                               SWEEP_AXIS_POINTS)),
    }


class SweepInputs(NamedTuple):
    #: Leg -> the experiment it sweeps.
    experiments: Dict[str, Experiment]
    axes: dict
    #: Leg -> its grid points.
    points: Dict[str, list]
    rng: random.Random


def sweep_inputs(seed: int) -> SweepInputs:
    bare = Experiment(seed=seed, **SWEEP)
    faulted = Experiment(seed=seed, faults=light_faults(seed), **SWEEP)
    experiments = {"default": bare, "elastic": bare, "faulted": faulted}
    axes = sweep_grid(seed)
    points = {leg: e.sweep_points(axes) for leg, e in experiments.items()}
    return SweepInputs(experiments, axes, points, random.Random(seed))


def sweep_once(experiment: Experiment, axes, workdir: str, leg: str) -> Callable:
    """One sweep against a fresh, empty result cache, as a unit to time;
    it returns the sweep's report."""
    cache_dir = os.path.join(workdir, f"sweep-cache-{leg}")
    shutil.rmtree(cache_dir, ignore_errors=True)
    return partial(experiment.sweep, axes, workers=SWEEP_WORKERS,
                   elastic=leg == "elastic", cache_dir=cache_dir,
                   label="perfbench")


def check_sweeps(checks: Checks, inputs: SweepInputs, reports: dict,
                 reference: dict) -> None:
    """Every scheduler computed every point, the two bare schedulers
    agree, results repeat exactly, and samples match inline runs."""
    for leg, report in reports.items():
        checks.equal(len(report.outcomes), len(inputs.points[leg]),
                     f"{leg} sweep point count")
        checks.equal(report.cache_hits, 0, f"{leg} sweep cache hits")
    checks.equal(reports["elastic"].by_key, reports["default"].by_key,
                 "elastic vs default sweep results")
    for leg in ("default", "faulted"):
        by_key = reports[leg].by_key
        if leg in reference:
            checks.equal(by_key, reference[leg], f"repeated {leg} sweep")
        else:
            reference[leg] = by_key
        for point in inputs.rng.sample(inputs.points[leg],
                                       SWEEP_INLINE_SAMPLES):
            checks.equal(by_key.get(point.label), run_point(**point.kwargs),
                         f"inline run_point of {leg} {point.label}")


def runner_layers(prefix: str, report) -> Metrics:
    """Runner metrics from a sweep report's own (unscaled) wall times."""
    busy = sum(o.elapsed for o in report.outcomes)
    points = len(report.outcomes)
    wall = report.elapsed
    return {
        f"{prefix}.point_s": (busy / points, "s"),
        f"{prefix}.overhead_per_point_ms": (
            (wall * report.workers - busy) / points * 1e3, "ms"),
        f"{prefix}.worker_busy_ratio": (busy / (wall * report.workers),
                                        "ratio"),
        f"{prefix}.retries": (report.retries, "count"),
    }


def sweep_rep(inputs: SweepInputs, workdir: str, rep: int,
              clock: HostClock) -> dict:
    """All three legs back to back, in rotating order; returns
    leg -> (scaled seconds, report).  The kernel times go to ``clock``.

    The points run in worker processes, where the sampler of
    :class:`~harness.HostClock` cannot follow them; instead the kernel
    runs in as many processes as the sweep has workers right before,
    between and after the sweeps, and each sweep's wall time is scaled
    by the mean of the two runs around it.
    """
    timed = {}
    calibrations = [parallel_calibration_s(SWEEP_WORKERS)]
    for leg in rotate(SWEEP_LEGS, rep):
        unit = sweep_once(inputs.experiments[leg], inputs.axes, workdir, leg)
        gc.collect()
        start = time.perf_counter()
        report = unit()
        wall = time.perf_counter() - start
        calibrations.append(parallel_calibration_s(SWEEP_WORKERS))
        scale = 2 * REFERENCE_S / (calibrations[-2] + calibrations[-1])
        timed[leg] = (wall * scale, report)
    clock.calibrations += calibrations
    return timed


def run_sweep_tiny(seed: int, seconds: float, tally: Tally,
                   workdir: str) -> Measured:
    inputs = sweep_inputs(seed)
    samples: Dict[str, List[float]] = {leg: [] for leg in SWEEP_LEGS}
    reference: dict = {}
    clock = HostClock()

    def rep(i: int) -> None:
        with tally.op(f"sweep_tiny rep {i}") as checks:
            timed = sweep_rep(inputs, workdir, i, clock)
            check_sweeps(checks, inputs,
                         {leg: report for leg, (_, report) in timed.items()},
                         reference)
            for leg, (wall, report) in timed.items():
                samples[leg].append(len(report.outcomes) / wall)

    closed_loop(seconds, SWEEP_MIN_REPS, rep)
    return clock, rates(samples, SWEEP_LEGS)


def inline_points(clock: HostClock, checks: Checks, points, by_key: dict):
    """Re-run ``points`` in this process as one timed unit, checking each
    against the sweep; returns ``(scaled seconds, kernel events)``."""
    def unit():
        return [Experiment(**p.kwargs).run() for p in points]

    [(took, outcomes)] = clock.time(unit)
    for point, outcome in zip(points, outcomes):
        checks.equal(outcome.results.to_dict(), by_key.get(point.label),
                     f"inline run of {point.label}")
    return took, sum(o.machine.sim.events_processed for o in outcomes)


def trace_sweep_tiny(seed: int, tally: Tally, workdir: str) -> Traced:
    inputs = sweep_inputs(seed)
    # Sweeps run untraced: forked workers would inherit the wrappers,
    # and their spans never reach this process.  The runner metrics come
    # from the reports' in-worker times; the layers come from inline
    # re-runs of sampled points, traced and untraced.
    clock = HostClock(scaled=False)
    times: Dict[bool, List[float]] = {False: [], True: []}
    tracer = Tracer()
    events = 0
    with tally.op("sweep_tiny sweeps") as checks:
        timed = sweep_rep(inputs, workdir, 0, HostClock())
        reports = {leg: report for leg, (_, report) in timed.items()}
        check_sweeps(checks, inputs, reports, {})
    samples = {leg: inputs.rng.sample(inputs.points[leg], SWEEP_TRACE_SAMPLES)
               for leg in ("default", "faulted")}
    for rep in range(TRACE_REPS):
        with tally.op("sweep_tiny untraced inline points") as checks:
            took, _ = inline_points(clock, checks, samples["default"],
                                    reports["default"].by_key)
            times[False].append(took)
        tracer = Tracer()
        with tally.op("sweep_tiny traced inline points") as checks:
            with tracer:
                took, events = inline_points(clock, checks, samples["default"],
                                             reports["default"].by_key)
            times[True].append(took)
    faulted_tracer = Tracer()
    with tally.op("sweep_tiny faulted traced inline points") as checks:
        with faulted_tracer:
            inline_points(clock, checks, samples["faulted"],
                          reports["faulted"].by_key)
    metrics = ledger(tracer, 0, events)
    metrics.update(build_layers(tracer))
    metrics.update(fault_layers(faulted_tracer))
    metrics.update(overhead(times))
    metrics.update(runner_layers("runner", reports["default"]))
    metrics.update(runner_layers("runner.elastic", reports["elastic"]))
    return clock, metrics, {"inline": tracer, "faulted": faulted_tracer}


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class Workload(NamedTuple):
    run: Callable[[int, float, Tally, str], Measured]
    trace: Callable[[int, Tally, str], Traced]
    #: What each role metric counts on this workload.
    roles: Dict[str, str]


WORKLOADS: Dict[str, Workload] = {
    "dubois_n4": Workload(run_dubois_n4, trace_dubois_n4, {
        "ops_per_s": "refs_per_s: refs/s, bare machine",
        "variant_ops_per_s": "instrumented_refs_per_s: obs hub attached",
        "faulted_ops_per_s": "faulted_refs_per_s: light fault plan",
    }),
    "trace_n64": Workload(run_trace_n64, trace_trace_n64, {
        "ops_per_s": "refs_per_s: refs/s, streaming trace replay",
        "variant_ops_per_s": "checkpoint save+load round trips/s",
        "faulted_ops_per_s": "refs/s, trace replay under light faults",
    }),
    "check_deep": Workload(run_check_deep, trace_check_deep, {
        "ops_per_s": "schedules/s, twobit, 5 pinned scenarios",
        "variant_ops_per_s": "schedules/s, fullmap, same scenarios",
        "faulted_ops_per_s": "schedules/s, twobit, light faults, 2p scenarios",
    }),
    "sweep_tiny": Workload(run_sweep_tiny, trace_sweep_tiny, {
        "ops_per_s": "points_per_s: default scheduler",
        "variant_ops_per_s": "elastic_points_per_s: elastic scheduler",
        "faulted_ops_per_s": "points/s, default scheduler, light faults",
    }),
}


# ----------------------------------------------------------------------
# Cold set-up: what a fresh process does before its first measured unit
# ----------------------------------------------------------------------
def setup_dubois_n4(seed: int, workdir: str) -> None:
    n4_machine(sub_seeds(seed, "dubois_n4")[0], "bare")


def setup_trace_n64(seed: int, workdir: str) -> None:
    n64_machine(sub_seeds(seed, "trace_n64")[0], n64_trace_path(workdir))


def setup_check_deep(seed: int, workdir: str) -> None:
    model_check.build_scenario_machine("twobit", pinned_scenarios()[0])


def setup_sweep_tiny(seed: int, workdir: str) -> None:
    cache_dir = os.path.join(workdir, f"setup-cache-{os.getpid()}")
    try:
        Experiment(seed=seed, **SWEEP).sweep(
            {"q": [0.05, 0.1]}, workers=SWEEP_WORKERS, cache_dir=cache_dir)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


SETUPS: Dict[str, Callable[[int, str], None]] = {
    "dubois_n4": setup_dubois_n4,
    "trace_n64": setup_trace_n64,
    "check_deep": setup_check_deep,
    "sweep_tiny": setup_sweep_tiny,
}
