#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_bench.py

Builds the runner like run.py does, then checks that a wrong expected
answer fails a run, that a traced run's self times add up to each root span
with the unaccounted remainder, and that one seed gives identical inputs
and identical exact counts. The runs use the --requests/--clients hooks so
they are short and their counts exact.
"""
import json
import math
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

BINARY = None


def invoke(workload, seed, *extra, trace=0, seconds=1, spans=None):
    """Runs the runner; returns (exit code, run record dict, result dict)."""
    with tempfile.TemporaryDirectory(dir=run.build_dir()) as work:
        command = [BINARY, "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace),
                   "--work-dir", os.path.join(work, "w")] + list(extra)
        if spans:
            command += ["--spans-out", spans]
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=170)
    lines = done.stdout.strip().splitlines()
    record = {}
    for line in lines[:-1]:
        key, _, value = line.partition(": ")
        record[key] = value
    return done.returncode, record, json.loads(lines[-1])


def lower_median(values):
    ordered = sorted(values)
    return ordered[max(math.ceil(0.5 * len(ordered)) - 1, 0)]


class BenchmarkTest(unittest.TestCase):
    def test_wrong_expected_answer_fails_the_run(self):
        for workload in ("read_hot", "scan_cold", "ingest_mixed"):
            with self.subTest(workload=workload):
                code, _, result = invoke(workload, 3, "--corrupt-oracle",
                                         "--clients", "1", "--requests", "50")
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_correct_run_passes(self):
        code, record, result = invoke("read_hot", 3, "--clients", "1",
                                      "--requests", "500")
        self.assertEqual(code, 0, record)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(record["failed_frac"],
                         "0/%d" % result["attempted"])

    def test_self_times_and_unaccounted_sum_to_root(self):
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as tmp:
            spans_path = os.path.join(tmp, "spans.jsonl")
            code, _, result = invoke("read_hot", 5, "--clients", "1",
                                     "--requests", "8000", trace=1,
                                     spans=spans_path)
            self.assertEqual(code, 0)
            with open(spans_path) as f:
                spans = [json.loads(line) for line in f]
        by_id = {s["id"]: s for s in spans}
        covered = {s["id"]: [] for s in spans}
        for s in spans:
            if s["parent"]:
                p = by_id[s["parent"]]
                lo = max(s["start_ns"], p["start_ns"])
                hi = min(s["end_ns"], p["end_ns"])
                if hi > lo:
                    covered[p["id"]].append((lo, hi))
        self_ns = {}
        for s in spans:
            union, reach = 0, -(1 << 62)
            for lo, hi in sorted(covered[s["id"]]):
                start = max(lo, reach)
                if hi > start:
                    union += hi - start
                reach = max(reach, hi)
            self_ns[s["id"]] = s["end_ns"] - s["start_ns"] - union
        roots = [s for s in spans if s["parent"] == 0]
        self.assertGreater(len(roots), 100)
        total = {}
        for s in spans:
            total[s["request_id"]] = total.get(s["request_id"], 0) + \
                self_ns[s["id"]]
        for root in roots:
            self.assertEqual(total[root["request_id"]],
                             root["end_ns"] - root["start_ns"])
        unaccounted = lower_median([self_ns[r["id"]] for r in roots])
        self.assertEqual(result["metrics"]["net.unaccounted_ns"]["value"],
                         unaccounted)

    def test_one_seed_gives_identical_inputs_and_counts(self):
        runs = [invoke("read_hot", 11, "--clients", "1", "--requests",
                       "3000", trace=1) for _ in range(2)]
        for code, _, _ in runs:
            self.assertEqual(code, 0)
        (_, rec_a, res_a), (_, rec_b, res_b) = runs
        self.assertEqual(rec_a["input_digest"], rec_b["input_digest"])
        self.assertEqual(res_a["metrics"]["core.query_cache.lookups_per_request"],
                         res_b["metrics"]["core.query_cache.lookups_per_request"])
        self.assertEqual(res_a["metrics"]["io.snapshot.bytes"],
                         res_b["metrics"]["io.snapshot.bytes"])
        untraced = [invoke("read_hot", 11, "--clients", "1", "--requests",
                           "500") for _ in range(2)]
        (_, rec_c, res_c), (_, _, res_d) = untraced
        self.assertEqual(rec_a["input_digest"], rec_c["input_digest"])
        for key in ("label_bits_max", "snapshot_bytes_per_vertex"):
            self.assertEqual(res_c["metrics"][key], res_d["metrics"][key])
        _, rec_other, _ = invoke("read_hot", 12, "--clients", "1",
                                 "--requests", "10")
        self.assertNotEqual(rec_a["input_digest"], rec_other["input_digest"])


def setUpModule():
    global BINARY
    BINARY = run.build(run.build_dir())
    if BINARY is None:
        raise RuntimeError("the benchmark does not build")


if __name__ == "__main__":
    unittest.main()
