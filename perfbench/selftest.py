"""Self-test of the benchmark: tiny smoke runs and deliberate perturbations.

Run from the repository root:

    python3 perfbench/selftest.py

It runs the benchmark itself (about ten seconds), so it is kept out of
the pytest suite.  Smoke runs at a tiny input size must print every
metric BENCHMARK.json names, with its unit, and pass every check; a
perturbed orbit, CSV or radius must count as failed ops.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import unittest
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np

import run
from checkout import ROOT, import_ratsys

import_ratsys()
import spans  # noqa: E402
import workloads  # noqa: E402
from ratsys import cli, dynamics, stability  # noqa: E402

TINY = 0.02


def bench(workload: str, trace: int = 0) -> tuple[dict, str]:
    """One tiny in-process run: (result of the last stdout line, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.2",
                         "--trace", str(trace)], scale=TINY, probes=1)
    if code != 0:
        raise AssertionError(f"exit code {code}: {err.getvalue()}")
    lines = out.getvalue().splitlines()
    return json.loads(lines[-1]), out.getvalue()


def nudged_simulate(real):
    """simulate whose last x value is moved by one ulp."""
    def simulate(params, init, n_steps, cap=dynamics.DEFAULT_CAP):
        orbit = real(params, init, n_steps, cap)
        xs = orbit.xs.copy()
        xs[-1] = np.nextafter(xs[-1], np.inf)
        return dynamics.Orbit(params, xs, orbit.ys, orbit.termination)
    return simulate


class SmokeRuns(unittest.TestCase):
    spec = run.load_spec()
    named = {"orbit-batch": ("orbits_per_s", "orbit_p50_ms", "orbit_p99_ms"),
             "long-orbit": ("steps_per_s",),
             "stability-map": ("nodes_per_s", "period2_p50_ms")}

    def test_every_metric_with_its_unit_and_every_check_passing(self):
        for workload in workloads.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    result, stdout = bench(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    units = self.spec[trace]
                    self.assertEqual(set(result["metrics"]), set(units))
                    for name, metric in result["metrics"].items():
                        self.assertEqual(metric["unit"], units[name])
                        self.assertIsInstance(metric["value"], (int, float))
                    if trace == 0:
                        for name in units:
                            self.assertGreater(result["metrics"][name]["value"], 0, name)
                        named = json.loads(next(line[len("named "):] for line in
                                                stdout.splitlines() if line.startswith("named ")))
                        for name in self.named[workload] + ("ops_failed_frac",):
                            self.assertIn("unit", named[name])

    def test_predicted_split(self):
        layers = bench("stability-map", 1)[0]["metrics"]
        self.assertEqual(layers["dynamics.simulate.calls"]["value"], 0)
        self.assertGreater(layers["stability.classify.calls"]["value"], 0)
        self.assertGreaterEqual(layers["trace.coverage"]["value"], 0.9)


class Perturbations(unittest.TestCase):
    def test_perturbed_orbit_fails(self):
        with mock.patch.object(dynamics, "simulate", nudged_simulate(dynamics.simulate)):
            result, _ = bench("orbit-batch")
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_perturbed_csv_fails(self):
        # fifteen significant digits no longer round-trip every float
        with mock.patch.object(cli, "_fmt", lambda value: f"{float(value):.15g}"):
            result, _ = bench("long-orbit")
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_perturbed_radius_fails(self):
        real = stability.classify

        def classify(params, *args, **kwargs):
            report = real(params, *args, **kwargs)
            return dataclasses.replace(report, spectral_radius=report.spectral_radius + 1e-9)
        with mock.patch.object(stability, "classify", classify):
            result, _ = bench("stability-map")
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)


class MissingProgram(unittest.TestCase):
    def test_benchmark_alone_exits_nonzero_without_a_result(self):
        bare = run.WORK_ROOT / f"selftest-{os.getpid()}"
        try:
            shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "orbit-batch",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class Checks(unittest.TestCase):
    def test_envelope_excuses_index_4_and_reseeds_later_even_indices(self):
        alpha, p, q = 2.0, 0.6, 0.9
        a = alpha ** -(p + q)
        drive = alpha ** (1.0 - p) + alpha
        below = np.array([5.0, 5.0, 1.5, 4.0, 4.0, 3.0, 4.0, 3.5, 4.4])  # x[0] <= alpha
        above = below.copy()
        above[2] = 2.5
        reseeded = below[6] * a + drive / (1.0 - a) * (1.0 - a)       # bound on x[6]
        ys = np.full(9, 3.0)

        def problem(violations, xs):
            return workloads.envelope_problem(violations, alpha, p, q, xs, ys)

        self.assertIsNone(problem([(4, "x", 4.0)], below))
        self.assertIsNotNone(problem([(4, "x", 4.0)], above))
        self.assertIsNotNone(problem([(5, "x", 3.5)], below))
        self.assertIsNotNone(problem([(4, "y", 3.0)], below))
        self.assertIsNotNone(problem([(6, "x", 1.5)], below))
        self.assertIsNone(problem([(6, "x", reseeded)], below))
        self.assertIsNotNone(problem([(6, "x", reseeded + 1e-6)], below))

    def test_component_runs_must_partition_and_alternate(self):
        values = np.array([4.0, 4.0, 1.0, 1.0, 4.0])
        bar = 3.0
        ok = ([-2, 0, 2], [2, 2, 1], [True, False, True])
        self.assertIsNone(workloads.component_runs_problem(*ok, values, bar))
        gap = ([-2, 0, 2], [2, 1, 1], [True, False, True])
        self.assertIsNotNone(workloads.component_runs_problem(*gap, values, bar))
        same_sign = ([-2, 0], [2, 3], [True, True])
        self.assertIsNotNone(workloads.component_runs_problem(*same_sign, values, bar))

    def test_naive_orbit_matches_simulate_bit_for_bit(self):
        params = dynamics.Params(0.1, 3.0, 3.0)
        init = dynamics.InitialConditions((1.0, 2.0, 3.0), (3.0, 1.0, 2.0))
        orbit = dynamics.simulate(params, init, 300)
        xs, ys, term = workloads.naive_orbit(0.1, 3.0, 3.0, init.x, init.y, 300,
                                             dynamics.DEFAULT_CAP)
        self.assertTrue(np.array_equal(orbit.xs, xs) and np.array_equal(orbit.ys, ys))
        self.assertEqual((orbit.termination.kind, orbit.termination.index), term)

    def test_coverage_counts_layer_spans_under_roots(self):
        tracer = spans.Tracer()
        with tracer.span("op.x", 0):
            with tracer.span("a.f"):
                pass
            with tracer.span("a.g"):
                pass
        records = tracer.drain()
        self.assertEqual([r[1] for r in records], [-1, 0, 0])
        agg = spans.aggregate(records)
        self.assertEqual(agg["calls"], {"op.x": 1, "a.f": 1, "a.g": 1})
        self.assertEqual(agg["layer_ns"], sum(r[4] - r[3] for r in records[1:]))


if __name__ == "__main__":
    unittest.main()
