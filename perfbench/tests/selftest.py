#!/usr/bin/env python3
"""Micro-scale self-test of the benchmark.

    python3 perfbench/tests/selftest.py

Runs every workload end to end on the smallest world (scale 0.005),
untraced and traced, and checks the printed result against
BENCHMARK.json. Then proves the output checks fire: with the built
runner, it writes a seed's oracle files, corrupts one (a digit of the
artifact, or one address's flag in the query pool, which flips the risk
answer that address must get) and runs each workload against it, which
must fail. Last, a directory that holds only the benchmark must fail
without printing a result.
"""

import glob
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
SCALE = "0.005"
TARGET = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "release")
# Relative to ROOT: the daemon's socket lives here, and socket paths are short.
TAMPER_OUT = os.path.join("perfbench", "out", "selftest")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None, proc.stderr


def run(workload, trace=0, seed=5):
    """Builds if needed and runs one workload through run.py."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--scale", SCALE]
    return result_of(subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600))


def run_against_corrupt_oracle(workload, ext, corrupt, seed=5):
    """Writes the seed's oracle files, rewrites the one ending in `ext`
    with `corrupt`, and runs `workload` against them with the built runner."""
    common = ["--seed", str(seed), "--scale", SCALE, "--out", TAMPER_OUT]
    runner = os.path.join(TARGET, "perfbench")
    oracle = subprocess.run([runner, "oracle", *common], cwd=ROOT, capture_output=True, text=True,
                            timeout=300)
    assert oracle.returncode == 0, oracle.stderr[-2000:]
    [path] = glob.glob(os.path.join(ROOT, TAMPER_OUT, f"oracle-s{seed}-x*.{ext}"))
    with open(path) as f:
        text = f.read()
    bad = corrupt(text)
    assert bad != text
    with open(path, "w") as f:
        f.write(bad)
    cmd = [runner, workload, *common, "--seconds", "1", "--trace", "0",
           "--daemon", os.path.join(TARGET, "daas-serve")]
    return result_of(subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300))


def flip_first_address_digit(artifact):
    """Changes one hex digit of the first address in the artifact."""
    at = artifact.index('"0x') + 3
    return artifact[:at] + ("2" if artifact[at] == "1" else "1") + artifact[at + 1:]


def flip_first_flag(pool):
    """Flips whether the pool's first address is flagged."""
    first, rest = pool.split("\n", 1)
    addr, flag = first.split(" ")
    return f"{addr} {'0' if flag == '1' else '1'}\n{rest}"


def setUpModule():
    code, _, err = run(WORKLOADS[0])
    assert code == 0, err[-2000:]


class SelfTest(unittest.TestCase):
    def test_every_workload_reports_every_metric(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, result, err = run(workload, trace)
                    self.assertEqual(code, 0, err[-2000:])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for name, m in result["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_chain_counts_repeat_per_seed(self):
        _, a, _ = run("batch-paper", 1, seed=9)
        _, b, _ = run("live-fine", 1, seed=9)
        for name in ("chain.txs", "chain.accounts"):
            self.assertEqual(a["metrics"][name]["value"], b["metrics"][name]["value"], name)

    def test_tampered_artifact_fails(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, err = run_against_corrupt_oracle(
                    workload, "artifact.json", flip_first_address_digit)
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertIn("artifact differs", err)

    def test_flipped_risk_answer_fails(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, err = run_against_corrupt_oracle(
                    workload, "pool.txt", flip_first_flag)
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertIn("oracle says", err)

    def test_benchmark_alone_fails_without_result(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("out"))
            cmd = [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
                   "--seconds", "1", "--trace", "0"]
            proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
