"""Self-tests of the benchmark harness.

Run from the repository root (they are not part of the program's test
suite, and the end-to-end ones take a few minutes)::

    python3 -m pytest perfbench/test_harness.py -q
    python3 -m unittest discover -s perfbench -p 'test_harness.py'
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def bench_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_bench(workload: str, seed: int = 3, trace: int = 0):
    """One short benchmark run in a fresh process; returns its result
    and every printed metric (details included) by name."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise AssertionError(f"{workload} exited {done.returncode}: {done.stderr}")
    lines = done.stdout.splitlines()
    printed = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) >= 4 and fields[0] == workload:
            try:
                printed[fields[1]] = float(fields[2])
            except ValueError:
                pass
    return json.loads(lines[-1]), printed


class RegistryTest(unittest.TestCase):
    """BENCHMARK.json and the workload registry name the same things."""

    def test_declared_metrics_are_the_ones_every_workload_reports(self):
        spec = bench_spec()
        self.assertEqual(list(workloads.END_TO_END),
                         [m["name"] for m in spec["end_to_end"]])
        self.assertEqual(list(workloads.PER_LAYER),
                         [m["name"] for m in spec["per_layer"]])
        self.assertEqual(set(workloads.WORKLOADS),
                         {w["name"] for w in spec["workloads"]})
        self.assertEqual(run.WORKLOAD_NAMES, tuple(workloads.WORKLOADS))
        for workload in workloads.WORKLOADS.values():
            self.assertEqual(set(workload.roles),
                             set(workloads.END_TO_END[:3]))


class TamperTest(unittest.TestCase):
    """A wrong output is counted as a failed operation."""

    def test_corrupted_fingerprint_fails_the_repetition(self):
        tally = harness.Tally()
        reference: dict = {}
        for fingerprint in ("abc", "abc", "abd"):
            with tally.op("rep") as checks:
                workloads.check_repeat(checks, reference, "k", {"x": 1},
                                       fingerprint)
        self.assertEqual((tally.attempted, tally.failed), (3, 1))

    def test_changed_simulated_result_fails_the_repetition(self):
        tally = harness.Tally()
        reference: dict = {}
        for latency in (2.5, 2.5000001):
            with tally.op("rep") as checks:
                workloads.check_repeat(checks, reference, "k",
                                       {"avg_latency": latency}, "fp")
        self.assertEqual(tally.failed, 1)

    def test_tampered_sweep_result_is_a_failure(self):
        inputs = workloads.sweep_inputs(5)
        axes = {"q": inputs.axes["q"][:2], "w": inputs.axes["w"][:2]}
        inputs = inputs._replace(
            axes=axes,
            points={leg: e.sweep_points(axes)
                    for leg, e in inputs.experiments.items()})
        os.makedirs(OUT, exist_ok=True)
        workdir = tempfile.mkdtemp(dir=OUT)
        try:
            timed = workloads.sweep_rep(inputs, workdir, 0, harness.HostClock())
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        reports = {leg: report for leg, (_, report) in timed.items()}

        tally = harness.Tally()
        reference: dict = {}
        with tally.op("untouched") as checks:
            workloads.check_sweeps(checks, inputs, reports, reference)
        self.assertEqual(tally.failed, 0, tally.problems)

        elastic = reports["elastic"]
        elastic.outcomes[0].result = dict(elastic.outcomes[0].result,
                                          cycles=-1)
        with tally.op("tampered") as checks:
            workloads.check_sweeps(checks, inputs, reports, reference)
        self.assertEqual((tally.attempted, tally.failed), (2, 1))
        self.assertIn("elastic vs default", tally.problems[0])

    def test_crash_inside_an_operation_is_a_failure(self):
        tally = harness.Tally()
        with tally.op("boom"):
            raise RuntimeError("lost transaction")
        self.assertEqual((tally.failed, tally.failure_ratio), (1, 1.0))


class TracerTest(unittest.TestCase):
    def test_self_time_excludes_children_and_uninstall_restores(self):
        from repro.sim.kernel import Simulator

        original = Simulator.__dict__["run"]
        tracer = Tracer()
        with tracer:
            self.assertIsNot(Simulator.__dict__["run"], original)
            sim = Simulator()
            sim.post(1, lambda: None)
            sim.run()
        self.assertIs(Simulator.__dict__["run"], original)
        self.assertEqual(tracer.counts()["Simulator.run"], 1)
        own = tracer.layer_self()
        self.assertAlmostEqual(own["sim"], tracer.total("Simulator.run"))

    def test_traced_machine_equals_untraced(self):
        clock = harness.HostClock()
        untraced, _ = workloads.untraced_window(
            clock, lambda: workloads.n4_machine(7, "bare"), 300)
        tracer = Tracer()
        traced, _, mark, events = workloads.traced_window(
            clock, tracer, lambda: workloads.n4_machine(7, "bare"), 300)
        tally = harness.Tally()
        reference: dict = {}
        for machine in (untraced, traced):
            with tally.op("window") as checks:
                workloads.settle(checks, reference, 7, machine)
        self.assertEqual(tally.failed, 0, tally.problems)
        layers = workloads.ledger(tracer, mark, events)
        self.assertEqual(layers["workloads.refs"][0], 4 * 300)
        self.assertGreater(layers["sim.self_s"][0], 0.0)


class EndToEndTest(unittest.TestCase):
    """Short real runs of every workload, untraced and traced."""

    def test_every_run_emits_every_declared_metric_and_passes(self):
        spec = bench_spec()
        for trace, declared in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            units = {m["name"]: m["unit"] for m in declared}
            for name in workloads.WORKLOADS:
                with self.subTest(workload=name, trace=trace):
                    result, _ = run_bench(name, trace=trace)
                    self.assertTrue(result["correct"], result)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(
                        {m: v["unit"] for m, v in result["metrics"].items()},
                        units)
                    for metric, value in result["metrics"].items():
                        if trace == 0:
                            self.assertGreater(value["value"], 0, metric)

    def test_held_out_seed_changes_simulated_metrics_and_passes(self):
        first, first_printed = run_bench("dubois_n4", seed=3)
        held_out, held_out_printed = run_bench("dubois_n4", seed=20261017)
        self.assertTrue(first["correct"] and held_out["correct"])
        for metric in ("sim_latency_cycles", "extra_cmds_per_ref"):
            self.assertNotEqual(first_printed[metric],
                                held_out_printed[metric])

    def test_fails_without_the_program(self):
        os.makedirs(OUT, exist_ok=True)
        bare = tempfile.mkdtemp(dir=OUT)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "dubois_n4",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
