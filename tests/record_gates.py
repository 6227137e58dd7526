#!/usr/bin/env python3
"""Gate tests for bench/record.py, fed with `-- cat <fixture>` commands.

The fixtures under tests/record_fixtures/ are real bench output:
cluster_scale --quick and flowsim_scale --quick RESULT lines, and a
google-benchmark JSON document. Regressed inputs are derived from them by
scaling one metric, so every gate is shown failing on the input it guards.

Run: python3 tests/record_gates.py (ctest: record_gates)
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
RECORD = os.path.join(HERE, "..", "bench", "record.py")
FIXTURES = os.path.join(HERE, "record_fixtures")
SCALE = os.path.join(FIXTURES, "cluster_scale_quick.txt")
FLOWSIM = os.path.join(FIXTURES, "flowsim_scale_quick.txt")
GBENCH = os.path.join(FIXTURES, "micro_benchmarks.json")


def run_record(result_file, *args):
    """Runs the recorder; returns (exit status, combined output)."""
    proc = subprocess.run([sys.executable, RECORD, result_file, *args],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    return proc.returncode, proc.stdout


def record(result_file, *args):
    return run_record(result_file, *args)[0]


class RecordGates(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def path(self, name):
        return os.path.join(self.tmp.name, name)

    def scaled(self, fixture, metric, factor):
        """Copy of `fixture` with every `metric=` value times `factor`."""
        with open(fixture) as f:
            text = f.read()
        text = re.sub(rf"\b{metric}=([0-9.]+)",
                      lambda m: f"{metric}={float(m.group(1)) * factor:.3f}",
                      text)
        out = self.path(os.path.basename(fixture) + f".{metric}")
        with open(out, "w") as f:
            f.write(text)
        return out

    def load(self, result_file):
        with open(result_file) as f:
            return json.load(f)

    def baseline(self, fixture):
        out = self.path("BENCH.json")
        self.assertEqual(
            record(out, "--section", "baseline-quick", "--", "cat", fixture),
            0)
        return out

    def scale_gate(self, out, fixture):
        return record(out, "--section", "ci-quick", "--against",
                      "baseline-quick", "--floor", "events_per_sec=0.10",
                      "--", "cat", fixture)

    def flowsim_gate(self, out, fixture):
        return record(out, "--section", "ci-quick", "--against",
                      "baseline-quick", "--floor", "transfers_per_sec=0.10",
                      "--ceiling", "fills_per_transfer=1.5", "--", "cat",
                      fixture)

    def test_scale_run_at_baseline_passes(self):
        out = self.baseline(SCALE)
        self.assertEqual(self.scale_gate(out, SCALE), 0)

    def test_scale_events_per_sec_drop_fails(self):
        out = self.baseline(SCALE)
        slow = self.scaled(SCALE, "events_per_sec", 0.8)
        self.assertEqual(self.scale_gate(out, slow), 1)
        # The failing run is still recorded, as the gate runs after writing.
        self.assertIn("ci-quick", self.load(out))

    def test_scale_drop_within_tolerance_passes(self):
        out = self.baseline(SCALE)
        self.assertEqual(
            self.scale_gate(out, self.scaled(SCALE, "events_per_sec", 0.95)),
            0)

    def test_flowsim_run_at_baseline_passes(self):
        out = self.baseline(FLOWSIM)
        self.assertEqual(self.flowsim_gate(out, FLOWSIM), 0)

    def test_flowsim_transfers_per_sec_drop_fails(self):
        out = self.baseline(FLOWSIM)
        slow = self.scaled(FLOWSIM, "transfers_per_sec", 0.8)
        self.assertEqual(self.flowsim_gate(out, slow), 1)

    def test_flowsim_fills_per_transfer_above_ceiling_fails(self):
        out = self.baseline(FLOWSIM)
        heavy = self.scaled(FLOWSIM, "fills_per_transfer", 1.6)
        self.assertEqual(self.flowsim_gate(out, heavy), 1)
        within = self.scaled(FLOWSIM, "fills_per_transfer", 1.4)
        self.assertEqual(self.flowsim_gate(out, within), 0)

    def test_other_sections_are_preserved(self):
        out = self.path("BENCH.json")
        with open(out, "w") as f:
            json.dump({"schema": 1, "note": "kept",
                       "baseline": {"runs": [{"name": "old", "x": 1}]}}, f)
        self.assertEqual(record(out, "--", "cat", SCALE), 0)
        doc = self.load(out)
        self.assertEqual(doc["note"], "kept")
        self.assertEqual(doc["baseline"], {"runs": [{"name": "old", "x": 1}]})
        self.assertIn("runs", doc["current"])

    def test_failing_bench_writes_nothing(self):
        out = self.path("BENCH.json")
        failing = ["sh", "-c", f"cat {SCALE}; exit 3"]
        self.assertNotEqual(record(out, "--", *failing), 0)
        self.assertFalse(os.path.exists(out))
        out = self.baseline(SCALE)
        with open(out) as f:
            before = f.read()
        self.assertNotEqual(record(out, "--", *failing), 0)
        # A failing second command aborts a recording the first one fed.
        self.assertNotEqual(record(out, "--", "cat", SCALE, "--", "false"), 0)
        with open(out) as f:
            self.assertEqual(f.read(), before)

    def test_missing_against_section_fails(self):
        out = self.baseline(SCALE)
        self.assertEqual(
            record(out, "--against", "nope", "--floor", "events_per_sec=0.1",
                   "--", "cat", SCALE), 1)

    def test_runs_match_with_field_defaults(self):
        # An old baseline without shards/background gates the new
        # shards=1/background=none runs, never a background run.
        out = self.path("BENCH.json")
        with open(out, "w") as f:
            json.dump({"old": {"runs": [
                {"name": "dumbbell", "jobs": 2, "events_per_sec": 1e9}]}}, f)
        fixture = self.path("bg.txt")
        with open(SCALE) as f:
            dumbbell = next(line for line in f if "name=dumbbell" in line)
        with open(fixture, "w") as f:
            f.write(dumbbell.replace("background=none", "background=poisson"))
        gate = ["--against", "old", "--floor", "events_per_sec=0.1", "--"]
        status, text = run_record(out, *gate, "cat", fixture)
        self.assertEqual(status, 1)
        self.assertIn("no run matches", text)
        status, text = run_record(out, *gate, "cat", SCALE)
        self.assertEqual(status, 1)
        self.assertIn("gate dumbbell jobs=2: events_per_sec", text)
        self.assertIn("REGRESSED", text)

    def test_value_types(self):
        out = self.path("BENCH.json")
        fixture = self.path("types.txt")
        with open(fixture, "w") as f:
            f.write("noise line\nRESULT name=x jobs=8 sim_s=4.000 "
                    "digest=0123456789012345 background=none p=-2 r=1e-3\n")
        self.assertEqual(record(out, "--", "cat", fixture), 0)
        (run,) = self.load(out)["current"]["runs"]
        self.assertEqual(run, {"name": "x", "jobs": 8, "sim_s": 4.0,
                               "digest": "0123456789012345",
                               "background": "none", "p": -2, "r": 1e-3})
        self.assertIs(type(run["sim_s"]), float)

    def test_gbench_json_and_result_lines_in_one_section(self):
        out = self.path("BENCH.json")
        lines = self.path("scaling.txt")
        with open(lines, "w") as f:
            f.write("RESULT name=runner_scaling threads=1 wall_s=15.59\n")
        self.assertEqual(
            record(out, "--", "cat", GBENCH, "--", "cat", lines), 0)
        runs = self.load(out)["current"]["runs"]
        names = [r["name"] for r in runs]
        self.assertEqual(names, ["BM_EventQueueSteadyState", "BM_TimerRearm",
                                 "runner_scaling"])
        self.assertEqual(set(runs[0]), {"name", "items_per_second",
                                        "real_time_ns"})


if __name__ == "__main__":
    unittest.main()
