#!/usr/bin/env python3
"""One benchmark for the batch, streaming and serving paths.

    python3 perfbench/run.py --workload batch-paper|live-fine|serve-mixed \\
        --seed N --seconds S --trace 0|1 [--scale F]

`BENCHMARK.json` lists batch-paper and live-fine; serve-mixed stays
runnable by name (perfbench/METRICS.md says why it is not listed).

Run from the root of a checkout. Builds the runner (`perfbench/`, a
Cargo package with a workspace of its own, depending on the repository's
crates by path) and the release `daas-serve` daemon, both `--offline`,
into `$CARGO_TARGET_DIR` (default `.bench_build`). Then `perfbench
oracle`, in its own process, writes the seed's sequential oracle files
into `perfbench/out/`, and the workload runs for S seconds and prints,
as its last line, one JSON object with `correct`, `attempted`, `failed`
and `metrics` (end-to-end with `--trace 0`, per-layer with `--trace 1`).
The full result, with run metadata and sample counts, goes to
`perfbench/out/<workload>-s<seed>-trace<0|1>.json`. `--scale` (default
1.0) shrinks the world for the self-test:

    python3 perfbench/tests/selftest.py

Exits non-zero without a result when there is nothing to build, as in a
directory that holds only the benchmark. The metrics, the output checks
and why each workload exists are in perfbench/METRICS.md; how this
benchmark's numbers relate to the older harnesses' is in
perfbench/RECONCILIATION.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

WORKLOADS = ("batch-paper", "live-fine", "serve-mixed")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join("perfbench", "out")
# A run must end within 180 s; the oracle and the workload share this.
RUN_BUDGET_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(env):
    """Builds the runner and the daemon; returns their paths or None."""
    steps = [
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
        ["cargo", "build", "--release", "--offline", "-p", "daas-serve", "--bin", "daas-serve"],
    ]
    if not os.path.isfile("Cargo.toml"):
        log("no Cargo.toml at the checkout root: nothing to benchmark")
        return None
    for cmd in steps:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            log(f"build failed: {' '.join(cmd)}")
            return None
    release = os.path.join(env["CARGO_TARGET_DIR"], "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "daas-serve")


def revision():
    """The git revision when there is one, plus a digest of the sources."""
    rev = "none"
    if os.path.isdir(".git"):
        got = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        if got.returncode == 0:
            rev = got.stdout.strip()
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "shims", "perfbench"):
        for base, dirs, files in os.walk(top) if os.path.isdir(top) else [("", [], [top])]:
            dirs[:] = sorted(d for d in dirs if d not in ("out", "target"))
            for name in sorted(files):
                if name.endswith((".rs", ".toml", ".lock", ".py")):
                    path = os.path.join(base, name)
                    digest.update(path.encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return f"{rev}+src.{digest.hexdigest()[:16]}"


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--scale", type=float, default=1.0, help="world scale (1.0 = the paper world)")
    args = p.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        p.error("--seconds must be positive and --seed non-negative")

    os.chdir(ROOT)
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    built = build(env)
    if built is None:
        return 2
    runner, daemon = built
    os.makedirs(OUT, exist_ok=True)

    start = time.monotonic()
    common = ["--seed", str(args.seed), "--scale", repr(args.scale), "--out", OUT]
    oracle = subprocess.run([runner, "oracle", *common], stdin=subprocess.DEVNULL,
                            stdout=sys.stderr, timeout=RUN_BUDGET_S)
    if oracle.returncode != 0:
        log("oracle failed")
        return 1

    cmd = [runner, args.workload, *common, "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--daemon", daemon, "--rev", revision()]
    left = RUN_BUDGET_S - (time.monotonic() - start)
    try:
        run = subprocess.run(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True, timeout=left)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within the run budget")
        return 1
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"{args.workload} printed no result (exit {run.returncode})")
        return 1
    print(json.dumps(result))
    return 0 if run.returncode == 0 and result.get("correct") else 1


if __name__ == "__main__":
    sys.exit(main())
