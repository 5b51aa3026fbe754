#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at smoke size, untraced and traced.

    python3 perfbench/test_smoke.py

Builds through run.py (so the build path is tested too), then checks each
run's result line against BENCHMARK.json: the contract keys, every metric
by name and unit, the output check (`correct`, no failed tasks) and, on
the traced fabric runs, that the hop split covers the client's attempts.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


class Smoke(unittest.TestCase):
    def check(self, workload, trace, spec):
        r = run(workload, trace)
        self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(r["correct"], r)
        self.assertEqual(r["failed"], 0)
        self.assertGreaterEqual(r["attempted"], 1)
        want = {m["name"]: m["unit"] for m in spec}
        self.assertEqual({k: v["unit"] for k, v in r["metrics"].items()}, want)
        return r["metrics"]

    def test_every_workload(self):
        for w in BENCH["workloads"]:
            name = w["name"]
            with self.subTest(workload=name, trace=0):
                m = self.check(name, 0, BENCH["end_to_end"])
                for k, v in m.items():
                    self.assertGreater(v["value"], 0, k)
            with self.subTest(workload=name, trace=1):
                m = self.check(name, 1, BENCH["per_layer"])
                if name.startswith("fabric-"):
                    # Small runs lose no telemetry: every client attempt
                    # has its full hop chain.
                    self.assertAlmostEqual(m["wire.hop_coverage"]["value"], 1.0, places=6)
                    self.assertEqual(m["runtime.fabric.attempts_per_task"]["value"], 1.0)
                    self.assertGreater(m["runtime.fabric.threaded_tasks_per_s"]["value"], 0)
                    # The chain and payload side passes ran.
                    self.assertGreater(m["runtime.fabric.latency_p50_us"]["value"], 0)
                    self.assertGreater(m["runtime.fabric.bytes_pass.tasks_per_s"]["value"], 0)
                    self.assertGreater(m["fedci.proto.bytes_pass.bytes_per_task"]["value"], 0)
                else:
                    self.assertGreater(m["sched.calls"]["value"], 0)
                    self.assertEqual(m["wire.hop_coverage"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
