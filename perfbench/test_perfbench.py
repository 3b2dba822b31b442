"""Tests for the benchmark's own code.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Smoke runs use --scale to shorten each workload's virtual horizon; they
build the benchmark first if needed (a cold build takes a few minutes).
"""
import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    """Each workload at a short horizon: the check passes and every metric
    BENCHMARK.json names is reported under a well-formed name."""

    def smoke(self, workload, trace):
        proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--scale", "0.05")
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = last_json(proc)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertRegex(m["name"], NAME)
            self.assertEqual(got["unit"], m["unit"])
            self.assertIsInstance(got["value"], (int, float))
        full = json.loads((ROOT / ".bench_out" /
                           f"{workload}-seed3-trace{trace}.json").read_text())
        for name in full["metrics"]:
            self.assertIsNotNone(NAME.fullmatch(name), name)
        return result, full

    def test_clos_dataplane(self):
        _, full = self.smoke("clos_dataplane", 0)
        self.assertGreater(full["metrics"]["delivered_ratio"]["value"], 0)
        _, full = self.smoke("clos_dataplane", 1)
        layers = full["metrics"]
        self.assertGreater(layers["net.engine.rounds"]["value"], 0)
        # No driver or agent work on the pure data-plane workload.
        for name in ("driver.sync_ops", "driver.async.batches",
                     "driver.channel.submit_ns", "agent.dialogue_self_us"):
            self.assertEqual(layers[name]["value"], 0, name)

    def test_gray_reactive(self):
        _, full = self.smoke("gray_reactive", 0)
        self.assertGreater(full["metrics"]["detect_us"]["value"], 0)
        _, full = self.smoke("gray_reactive", 1)
        self.assertEqual(full["metrics"]["net.engine.rounds"]["value"], 0)
        self.assertGreater(full["metrics"]["driver.sync_ops"]["value"], 0)

    def test_route_churn(self):
        _, full = self.smoke("route_churn", 0)
        self.assertGreater(full["metrics"]["updates_per_s"]["value"], 0)
        _, full = self.smoke("route_churn", 1)
        layers = full["metrics"]
        self.assertEqual(layers["net.engine.rounds"]["value"], 0)
        self.assertEqual(layers["net.link.tx_pkts"]["value"], 0)
        self.assertGreater(layers["driver.async.batches"]["value"], 0)


class WithoutSourcesTest(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        """Only BENCHMARK.json and perfbench/: nonzero exit, no result line."""
        scratch = ROOT / ".bench_out" / "no_sources"
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", scratch)
        shutil.copytree(HERE, scratch / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "route_churn", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=scratch)
        shutil.rmtree(scratch)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class HelpersTest(unittest.TestCase):
    def test_spec_names(self):
        for group in ("workloads", "end_to_end", "per_layer"):
            for m in SPEC[group]:
                self.assertIsNotNone(NAME.fullmatch(m["name"]), m["name"])

    def test_distribution_tail_has_ten_samples_beyond(self):
        d = run.distribution(list(range(100)))
        self.assertEqual(d["n"], 100)
        self.assertAlmostEqual(d["tail_pct"], 90.0)
        self.assertGreaterEqual(sum(1 for x in range(100) if x > d["tail"]), 10)
        self.assertNotIn("tail", run.distribution([1.0] * 19))

    def test_rep_failures_flags_a_wrong_output(self):
        rep = {"outputs": {"restored": "true", "detected_at_ns": "1"},
               "virtual": {"detect_us": 1.5}}
        ref = {"outputs": {"restored": "true", "detected_at_ns": "2"},
               "virtual": {"detect_us": 1.5}}
        self.assertTrue(run.rep_failures("gray_reactive", rep, ref))
        ref["outputs"]["detected_at_ns"] = "1"
        self.assertFalse(run.rep_failures("gray_reactive", rep, ref))
        ref["virtual"]["detect_us"] = 1.25
        self.assertTrue(run.rep_failures("gray_reactive", rep, ref))

    def test_any_seed_workloads_are_recorded_for_every_seed(self):
        """A held-out seed on gray_reactive or route_churn is checked against
        the recorded reference, without running the binary."""
        for workload in run.ANY_SEED:
            ref, source = run.reference(None, workload, 987654321, 1.0, None)
            self.assertEqual(source, "recorded")
            self.assertTrue(ref["outputs"] and ref["virtual"], workload)
            for k in run.ANY_SEED[workload]:
                self.assertNotIn(k, ref["outputs"])

if __name__ == "__main__":
    unittest.main()
