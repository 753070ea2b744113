#!/usr/bin/env python3
"""Self-test of the cacbench benchmark, on short runs.

    python3 cacbench/tests/test_cacbench.py

Run it from the repository root; it builds the benchmark through
cacbench/run.py.  Each run is a normal benchmark run with a small
--seconds: the same population, warm-up and gates, a few hundred timed
ops.  For every workload it checks that:

  * every metric BENCHMARK.json lists is printed with its unit, the
    end-to-end ones untraced and the per-layer ones traced;
  * count metrics repeat exactly for one seed and differ for another;
  * the traced run reproduces the untraced run's verdict digest;
  * a deliberately broken oracle expectation makes the run exit non-zero.
"""

import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "cacbench", "run.py")
WORKLOADS = ("churn", "probe", "signaling_lossy")
SECONDS = "0.04"


def run(workload, seed, trace, *extra):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", str(trace), *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170)
    return done


def result(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


class CacbenchSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.runs = {}
        for workload in WORKLOADS:
            for seed, trace in ((1, 0), (1, 1), (2, 1)):
                done = run(workload, seed, trace)
                if done.returncode != 0:
                    raise AssertionError(
                        f"{workload} seed {seed} trace {trace} exited "
                        f"{done.returncode}:\n{done.stderr}")
                cls.runs[workload, seed, trace] = done

    def test_every_metric_printed_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                out = result(self.runs[workload, 1, trace])
                self.assertTrue(out["correct"])
                self.assertGreaterEqual(out["attempted"], 1)
                expected = {m["name"]: m["unit"] for m in self.spec[key]}
                printed = {k: v["unit"] for k, v in out["metrics"].items()}
                self.assertEqual(printed, expected, f"{workload} {key}")
                for name, value in out["metrics"].items():
                    self.assertIsInstance(value["value"], (int, float), name)

    def test_counts_repeat_for_a_seed_and_differ_for_another(self):
        counts = [m["name"] for m in self.spec["per_layer"] if m["unit"] == "count"]
        for workload in WORKLOADS:
            first = result(self.runs[workload, 1, 1])["metrics"]
            again = result(run(workload, 1, 1))["metrics"]
            other = result(self.runs[workload, 2, 1])["metrics"]
            for name in counts:
                self.assertEqual(first[name]["value"], again[name]["value"],
                                 f"{workload} {name}")
            self.assertTrue(
                any(first[n]["value"] != other[n]["value"] for n in counts),
                f"{workload}: no count changed with the seed")
            untraced = result(self.runs[workload, 1, 0])
            self.assertEqual(untraced["attempted"], result(self.runs[workload, 1, 1])["attempted"])

    def test_traced_run_reproduces_untraced_verdicts(self):
        pattern = re.compile(r"^digest (\w+) traced_digest (\w+)", re.M)
        for workload in WORKLOADS:
            match = pattern.search(self.runs[workload, 1, 1].stdout)
            self.assertIsNotNone(match, workload)
            self.assertEqual(match.group(1), match.group(2), workload)
            untraced = re.search(r"^digest (\w+)", self.runs[workload, 1, 0].stdout, re.M)
            self.assertEqual(untraced.group(1), match.group(1), workload)

    def test_broken_oracle_expectation_fails_the_run(self):
        for workload in WORKLOADS:
            done = run(workload, 1, 0, "--break-gate")
            self.assertNotEqual(done.returncode, 0, workload)
            self.assertIn("GATE FAILED", done.stderr, workload)


if __name__ == "__main__":
    unittest.main()
