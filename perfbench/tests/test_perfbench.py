"""Tests of the benchmark package.

    python3 -m unittest discover -s perfbench/tests -v

They build the benchmark (as perfbench/run.py does) and run it in its
--quick mode, which shrinks every workload; a full run takes minutes.
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
PACKAGE = os.path.dirname(HERE)
ROOT = os.path.dirname(PACKAGE)
sys.path.insert(0, PACKAGE)

import run  # noqa: E402  (perfbench/run.py)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


_binary = None


def binary():
    global _binary
    if _binary is None:
        _binary = run.build()
    return _binary


def bench(*args):
    """Run the binary; (exit code, stdout lines, parsed last line or None)."""
    out = subprocess.run([binary(), *args], capture_output=True, text=True,
                         cwd=ROOT, timeout=600)
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return out.returncode, lines, result


def quick(workload, trace="0", *extra, seed="7"):
    return bench("--workload", workload, "--seed", seed, "--seconds", "1",
                 "--trace", trace, "--quick", *extra)


class BenchmarkJsonTest(unittest.TestCase):
    def test_shape(self):
        b = load_benchmark()
        self.assertEqual(set(b), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertTrue(1 <= len(b["command"]) <= 32)
        for arg in b["command"]:
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/") or ".." in arg.split("/"))
        self.assertTrue(1 <= len(b["paths"]) <= 16)
        for p in b["paths"]:
            self.assertRegex(p, PATH)
            self.assertTrue(os.path.isdir(os.path.join(ROOT, p)))
        self.assertIsInstance(b["run_seconds"], int)
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        self.assertTrue(1 <= len(b["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(b["per_layer"]) <= 128)

    def test_metric_name_grammar(self):
        b = load_benchmark()
        names = [w["name"] for w in b["workloads"]]
        names += [m["name"] for m in b["end_to_end"] + b["per_layer"]]
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)), "a name is used twice")

    def test_unit_and_direction_on_every_metric(self):
        b = load_benchmark()
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in b["end_to_end"]))

    def test_catalogue_matches_benchmark_json(self):
        code, lines, _ = bench("--list-metrics")
        self.assertEqual(code, 0)
        catalogue = [json.loads(l) for l in lines]
        b = load_benchmark()
        for kind, key in (("end_to_end", "end_to_end"),
                          ("per_layer", "per_layer")):
            declared = [(m["name"], m["unit"], m["better"]) for m in b[key]]
            built = [(m["name"], m["unit"], m["better"]) for m in catalogue
                     if m["kind"] == kind]
            self.assertEqual(declared, built)
        self.assertEqual([w["name"] for w in b["workloads"]],
                         ["chip_read", "ssd_replay", "fleet"])

    def test_layer_map_covers_every_per_layer_metric(self):
        b = load_benchmark()
        with open(os.path.join(PACKAGE, "layer_map.json")) as f:
            layer_map = json.load(f)
        workloads = {w["name"] for w in b["workloads"]}
        e2e = {m["name"] for m in b["end_to_end"]}
        per_layer = [m["name"] for m in b["per_layer"]]
        self.assertEqual(sorted(per_layer),
                         sorted(e["metric"] for e in layer_map["layers"]))
        self.assertEqual(set(layer_map["workloads"]), workloads)
        known = e2e | set(per_layer)
        for e in layer_map["layers"]:
            for move in e["moves"]:
                self.assertIn(move["metric"], known)
                self.assertTrue(set(move["workloads"]) <= workloads)
            self.assertTrue(set(e["no_change"]) <= workloads)


class RunTest(unittest.TestCase):
    def check_run(self, workload, trace):
        code, lines, r = quick(workload, trace)
        self.assertEqual(code, 0)
        self.assertIsNotNone(r, lines[-3:])
        self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(r["correct"])
        self.assertGreaterEqual(r["attempted"], 1)
        self.assertEqual(r["failed"], 0)
        key = "per_layer" if trace == "1" else "end_to_end"
        declared = {m["name"]: m["unit"] for m in load_benchmark()[key]}
        self.assertEqual({k: v["unit"] for k, v in r["metrics"].items()},
                         declared)
        return lines, r

    def test_every_workload_reports_every_metric(self):
        for workload in ("chip_read", "ssd_replay", "fleet"):
            for trace in ("0", "1"):
                with self.subTest(workload=workload, trace=trace):
                    lines, r = self.check_run(workload, trace)
                    if trace == "0":
                        self.assertGreater(r["metrics"]["wall_s"]["value"], 0)
                        self.assertGreater(r["metrics"]["setup_s"]["value"], 0)
                    else:
                        self.assertTrue(any(l.startswith("self time per pass")
                                            for l in lines))

    def test_same_seed_same_simulation(self):
        def simulated(seed):
            _, lines, r = quick("fleet", "0", seed=seed)
            digest = [l.rsplit(" ", 1)[1] for l in lines
                      if l.startswith("digest ")]
            sim = {k: v["value"] for k, v in r["metrics"].items()
                   if k not in ("wall_s", "setup_s", "sim_ops_per_s",
                                "peak_rss_mb")}
            return digest, sim, set(r["metrics"])

        a, b, c = simulated("3"), simulated("3"), simulated("4")
        self.assertEqual(a[:2], b[:2])
        self.assertNotEqual(a[0], c[0])
        self.assertEqual(a[2], c[2])

    def test_broken_check_fails_the_run(self):
        for workload in ("chip_read", "ssd_replay", "fleet"):
            with self.subTest(workload=workload):
                code, _, r = quick(workload, "0", "--inject", "check")
                self.assertEqual(code, 0)
                self.assertFalse(r["correct"])
                self.assertGreater(r["failed"], 0)
                self.assertEqual(r["failed"], r["attempted"])

    def test_corrupted_fleet_rollup_fails_the_run(self):
        code, _, r = quick("fleet", "0", "--inject", "rollup")
        self.assertEqual(code, 0)
        self.assertFalse(r["correct"])
        self.assertEqual(r["failed"], r["attempted"])

    def test_bad_arguments_exit_2(self):
        for args in (["--workload", "nope"], ["--workload", "fleet",
                                               "--trace", "2"],
                     ["--workload", "fleet", "--seed", "x"], ["--bogus", "1"]):
            with self.subTest(args=args):
                self.assertEqual(bench(*args)[0], 2)

    def test_fails_without_the_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(PACKAGE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "fleet",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, env=env, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
