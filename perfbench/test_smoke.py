#!/usr/bin/env python3
"""Tests of the benchmark itself, on tiny inputs (about a minute, most of
it the first build):

    python3 perfbench/test_smoke.py
"""

import filecmp
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_work", "test_smoke")
sys.path.insert(0, HERE)
import run  # noqa: E402


def bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True)


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.makedirs(SCRATCH, exist_ok=True)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def run_all(self, trace):
        out = bench("--workload", "all", "--smoke", "--seed", "5",
                    "--seconds", "1", "--trace", str(trace))
        self.assertEqual(out.returncode, 0, out.stderr)
        result = json.loads(out.stdout.strip().split("\n")[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], out.stdout)
        self.assertEqual(result["failed"], 0)
        names = run.PER_LAYER if trace else run.END_TO_END
        want = {f"{w}.{n}" for w in run.WORKLOADS for n, _ in names}
        self.assertEqual(set(result["metrics"]), want)
        return result, out.stdout

    def test_end_to_end_all_workloads(self):
        result, _ = self.run_all(0)
        for w in run.WORKLOADS:
            for name, _ in run.END_TO_END:
                self.assertGreater(result["metrics"][f"{w}.{name}"]["value"],
                                   0, f"{w}.{name}")
        # Serve answers 8 sessions x 26 queries per repetition.
        self.assertGreaterEqual(result["attempted"], 208)

    def test_traced_layers_and_closure(self):
        result, text = self.run_all(1)
        m = {k: v["value"] for k, v in result["metrics"].items()}
        self.assertGreater(m["ingest-hotspot.gutter.coalesce_ratio"], 0.3)
        self.assertGreater(m["ingest-hotspot.sketch.delta_merge_s"], 0)
        self.assertGreater(m["ingest-uniform.sketch.apply_ns_per_half"], 0)
        self.assertEqual(m["serve-multitenant.snapshot.count"], 208)
        self.assertGreater(m["serve-multitenant.query.decode_ms.kedge"], 0)
        for w in run.WORKLOADS:
            self.assertIn(f"{w}  closure (", text)

    def test_harness_gen_matches_cli_gen(self):
        run.ensure_built()
        a = os.path.join(SCRATCH, "harness.gskb")
        b = os.path.join(SCRATCH, "cli.gskb")
        for profile in ("uniform", "hotspot"):
            subprocess.run([run.HARNESS, "gen", profile, "300", "5000", "9", a],
                           check=True)
            subprocess.run([run.CLI, "gen", profile, "300", "5000", b, "9"],
                           check=True, capture_output=True)
            self.assertTrue(filecmp.cmp(a, b, shallow=False), profile)

    def test_refuses_to_run_without_the_repository(self):
        alone = os.path.join(SCRATCH, "alone")
        shutil.rmtree(alone, ignore_errors=True)
        os.makedirs(alone)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
        shutil.copytree(HERE, os.path.join(alone, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = bench("--workload", "ingest-hotspot", "--seed", "1",
                    "--seconds", "1", "--trace", "0", cwd=alone,
                    script=os.path.join(alone, "perfbench", "run.py"))
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout.strip(), "")

    def test_compare_refuses_mismatched_identities(self):
        row = {"identity": {"workload": "ingest-hotspot", "n": 1024,
                            "seed": 1, "cli_flags": "--threads 3"},
               "trace": 0,
               "result": {"failed": 0, "metrics": {}}}
        base = os.path.join(SCRATCH, "base.jsonl")
        change = os.path.join(SCRATCH, "change.jsonl")
        with open(base, "w") as f:
            f.write(json.dumps(row) + "\n")
        row["identity"]["cli_flags"] = "--threads 1"
        with open(change, "w") as f:
            f.write(json.dumps(row) + "\n")
        out = subprocess.run([sys.executable, os.path.join(HERE, "compare.py"),
                              base, change], capture_output=True, text=True)
        self.assertEqual(out.returncode, 2, out.stdout)
        self.assertIn("identities differ (cli_flags)", out.stdout)


if __name__ == "__main__":
    unittest.main()
