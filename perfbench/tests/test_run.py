"""Self-tests of perfbench/run.py: BENCHMARK.json against the contract, the
result validator, and refusal to run without solver sources.

Run: python3 perfbench/run.py --self-test (or python3 -m unittest discover
-s perfbench/tests -p 'test_*.py').
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


class SpecTest(unittest.TestCase):
    def test_keys_and_limits(self):
        s = spec()
        self.assertEqual(set(s), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(s["workloads"]) <= 8)
        self.assertTrue(1 <= len(s["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(s["per_layer"]) <= 128)
        self.assertIsInstance(s["run_seconds"], int)
        self.assertTrue(1 <= s["run_seconds"] <= 60)
        for w in s["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in s["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        setup = [m for m in s["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in s["end_to_end"]))

    def test_names_and_units(self):
        s = spec()
        names = [x["name"] for x in
                 s["workloads"] + s["end_to_end"] + s["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))

    def test_paths_hold_the_benchmark(self):
        s = spec()
        self.assertEqual(s["paths"], ["perfbench"])
        self.assertEqual(s["command"][:2], ["python3", "perfbench/run.py"])


class ValidateTest(unittest.TestCase):
    EXPECTED = {"tts_s": "s", "iters": "count"}

    def good(self):
        return {"correct": True, "attempted": 3, "failed": 0,
                "metrics": {"tts_s": {"value": 1.25, "unit": "s"},
                            "iters": {"value": 7, "unit": "count"}}}

    def test_good_result(self):
        self.assertEqual(run.validate(self.good(), self.EXPECTED), [])

    def test_rejects_bad_results(self):
        r = self.good()
        del r["failed"]
        self.assertTrue(run.validate(r, self.EXPECTED))
        r = self.good()
        r["attempted"] = 0
        self.assertTrue(run.validate(r, self.EXPECTED))
        r = self.good()
        r["metrics"]["extra"] = {"value": 1, "unit": "s"}
        self.assertTrue(run.validate(r, self.EXPECTED))
        r = self.good()
        r["metrics"]["tts_s"]["unit"] = "ms"
        self.assertTrue(run.validate(r, self.EXPECTED))
        r = self.good()
        r["metrics"]["tts_s"]["value"] = float("nan")
        self.assertTrue(run.validate(r, self.EXPECTED))
        r = self.good()
        r["attempted"] = True
        self.assertTrue(run.validate(r, self.EXPECTED))

    def test_child_env_pins_threads(self):
        os.environ["SMG_DECOMP"] = "2x2x2"
        os.environ["OMP_PROC_BIND"] = "true"
        try:
            env = run.child_env()
        finally:
            del os.environ["SMG_DECOMP"]
            del os.environ["OMP_PROC_BIND"]
        self.assertEqual(env["OMP_NUM_THREADS"], str(run.THREADS))
        self.assertNotIn("SMG_DECOMP", env)
        self.assertNotIn("OMP_PROC_BIND", env)


class NoSourcesTest(unittest.TestCase):
    def test_refuses_without_sources(self):
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(BENCH, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 spec()["workloads"][0]["name"], "--seed", "1", "--seconds",
                 "1", "--trace", "0"],
                cwd=d, env=env, capture_output=True, text=True, timeout=60)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"metrics"', p.stdout)


if __name__ == "__main__":
    unittest.main()
