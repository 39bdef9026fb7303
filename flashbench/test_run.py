#!/usr/bin/env python3
"""Tests of the flashbench benchmark.

    python3 flashbench/test_run.py              # everything
    python3 flashbench/test_run.py Validation   # config checks only (fast,
                                                # nothing is built)

Validation: a malformed BENCHMARK.json (missing key, zero, NaN, unknown
workload or metric) is refused, and run.py exits nonzero before it builds
or measures anything.

Smoke: each workload at toy size (run.py --toy) runs clean and reports
every metric; one toy traced run reports every per-layer metric and writes
its Chrome trace. Run from the checkout root; temporary files go under
.bench_build/.
"""
import copy
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402


def good_benchmark():
    return run.load_json(os.path.join(ROOT, "BENCHMARK.json"))


class Validation(unittest.TestCase):
    def reject(self, cfg):
        with self.assertRaises(run.ConfigError):
            run.validate_benchmark(cfg)

    def test_repository_config_is_valid(self):
        cfg = good_benchmark()
        run.validate_benchmark(cfg)
        self.assertLessEqual({w["name"] for w in cfg["workloads"]},
                             set(run.WORKLOADS))

    def test_missing_top_level_key(self):
        for key in good_benchmark():
            cfg = good_benchmark()
            del cfg[key]
            self.reject(cfg)

    def test_missing_metric_key(self):
        for section in ("end_to_end", "per_layer"):
            cfg = good_benchmark()
            del cfg[section][0]["unit"]
            self.reject(cfg)

    def test_zero_values(self):
        cfg = good_benchmark()
        cfg["end_to_end"][0]["bound"] = 0
        self.reject(cfg)
        cfg = good_benchmark()
        cfg["run_seconds"] = 0
        self.reject(cfg)

    def test_bound_above_limit(self):
        cfg = good_benchmark()
        cfg["end_to_end"][0]["bound"] = 0.3
        self.reject(cfg)

    def test_nan_is_refused_at_parse(self):
        path = os.path.join(ROOT, ".bench_build", "test-nan.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        text = json.dumps(good_benchmark()).replace('"bound": 0.25',
                                                    '"bound": NaN', 1)
        self.assertIn("NaN", text)
        with open(path, "w") as f:
            f.write(text)
        with self.assertRaises(run.ConfigError):
            run.load_json(path)
        os.remove(path)

    def test_unknown_workload(self):
        cfg = good_benchmark()
        cfg["workloads"][0]["name"] = "verify_lukewarm"
        self.reject(cfg)

    def test_unknown_metric(self):
        cfg = good_benchmark()
        cfg["end_to_end"][1]["name"] = "goodput_ops_s"
        self.reject(cfg)
        cfg = good_benchmark()
        cfg["per_layer"][0]["name"] = "phys.nothing_us"
        self.reject(cfg)

    def test_wrong_unit_or_direction(self):
        cfg = good_benchmark()
        cfg["end_to_end"][0]["unit"] = "ms"
        self.reject(cfg)
        cfg = good_benchmark()
        cfg["end_to_end"][0]["better"] = "higher"
        self.reject(cfg)

    def test_duplicate_name_and_missing_setup(self):
        cfg = good_benchmark()
        cfg["per_layer"].append(copy.deepcopy(cfg["per_layer"][0]))
        self.reject(cfg)
        cfg = good_benchmark()
        cfg["end_to_end"] = [m for m in cfg["end_to_end"]
                             if m["name"] != "setup_s"]
        self.reject(cfg)

    def test_run_py_exits_before_building(self):
        """A broken BENCHMARK.json stops run.py with exit 2, no result line
        and no build directory, in a checkout that holds only the
        benchmark's own files."""
        cases = {
            "missing_key": lambda c: c.pop("per_layer"),
            "zero_bound": lambda c: c["end_to_end"][0].__setitem__("bound", 0),
            "unknown_workload": lambda c: c["workloads"][0].__setitem__(
                "name", "nope"),
        }
        for name, mutate in cases.items():
            tmp = os.path.join(ROOT, ".bench_build", "test-" + name)
            shutil.rmtree(tmp, ignore_errors=True)
            shutil.copytree(HERE, os.path.join(tmp, "flashbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            cfg = good_benchmark()
            mutate(cfg)
            with open(os.path.join(tmp, "BENCHMARK.json"), "w") as f:
                json.dump(cfg, f)
            p = subprocess.run(
                [sys.executable, "flashbench/run.py", "--workload",
                 "verify_hot", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tmp, capture_output=True, text=True, timeout=60)
            self.assertEqual(p.returncode, 2, name + ": " + p.stderr)
            self.assertEqual(p.stdout, "", name)
            self.assertFalse(os.path.exists(os.path.join(tmp, ".bench_build")),
                             name)
            shutil.rmtree(tmp)

    def test_run_py_fails_without_sources(self):
        """A valid config in a directory that holds only BENCHMARK.json and
        the benchmark's files exits nonzero without printing a result."""
        tmp = os.path.join(ROOT, ".bench_build", "test-bare")
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(tmp, "flashbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        p = subprocess.run(
            [sys.executable, "flashbench/run.py", "--workload", "enroll",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"correct"', p.stdout)
        shutil.rmtree(tmp)


def run_toy(workload, trace):
    p = subprocess.run(
        [sys.executable, "flashbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    return p, (json.loads(lines[-1]) if lines else None)


class Smoke(unittest.TestCase):
    def check(self, workload, trace):
        p, res = run_toy(workload, trace)
        self.assertEqual(p.returncode, 0, p.stdout[-2000:] + p.stderr[-2000:])
        self.assertTrue(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        wanted = good_benchmark()["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(res["metrics"]), {m["name"] for m in wanted})
        return res

    def test_verify_hot(self):
        self.check("verify_hot", 0)

    def test_verify_cold(self):
        self.check("verify_cold", 0)

    def test_enroll(self):
        self.check("enroll", 0)

    def test_lot_study(self):
        self.check("lot_study", 0)

    def test_traced_run_writes_every_layer_metric_and_trace(self):
        self.check("verify_hot", 1)
        trace = os.path.join(ROOT, ".bench_build", "traces",
                             "verify_hot.json")
        with open(trace) as f:
            events = json.load(f)["traceEvents"]
        names = {e.get("name") for e in events}
        for span in ("core.verify", "flash.read", "phys.erase_pulse",
                     "store.pin_miss", "serve.verify_rtt", "req.verify"):
            self.assertIn(span, names)


if __name__ == "__main__":
    unittest.main()
