#!/usr/bin/env bash
# CI gate: the tier-1 contract (ROADMAP.md) plus the equivalence suites:
# world-build and §6-report thread counts and the streaming stack, all
# against the sequential batch pipeline; the daemon's serve and scrape
# gates; the live-smoke, scale-sweep and robustness smokes; the
# benchmark's self-test; and the obs_overhead micro bench. Stage timings
# come from the benchmark (perfbench/, see BENCHMARK.json), not from
# this script. Test threads are pinned so the harness schedule is
# reproducible; the pipeline's own worker counts are set per-test.
#
# A run leaves `git status` clean: the bench's BENCH_<group>.json goes to
# $BENCH_OUT_DIR, a temporary directory unless the caller sets one.
set -euo pipefail
cd "$(dirname "$0")"
if [[ -z "${BENCH_OUT_DIR:-}" ]]; then
  BENCH_OUT_DIR="$(mktemp -d)"
  trap 'rm -rf "$BENCH_OUT_DIR"' EXIT
fi
export BENCH_OUT_DIR

# ---- Tier 1: build + root-package tests. ----
cargo build --release
cargo test -q

# ---- eth-types, daas-chain and the serde_json shim in release too:
#      debug and release builds treat integer overflow differently, and
#      `mul_div`'s u128 path must equal its 512-bit fallback, the
#      interner's wrapping hash must place every address, and a tx hash
#      derived on read must equal the one the arena was built with, under
#      both; the daemon and the benchmark run the codec's run-scanning
#      loops only as release builds. ----
cargo test -q --release -p eth-types -p daas-chain -p serde_json

# ---- Sequential-oracle equivalence suites. ----
cargo test -q -p daas-world --test parallel_equivalence -- --test-threads 4
cargo test -q -p daas-detector --test snowball_props -- --test-threads 4
cargo test -q -p daas-measure --test parallel_equivalence -- --test-threads 4
cargo test -q --test determinism -- --test-threads 4

# ---- Streaming (live) equivalence suites: online detector →
#      incremental clusterer → live measurement vs the batch oracle,
#      scoped rebuilds under revocation storms, kill/restore
#      convergence (replay to the checkpoint's cursor) plus refusal of
#      truncated checkpoints and of cursors or chain fingerprints the
#      rebuilt chain cannot place, and the role sets each publish shares
#      with readers. ----
cargo test -q -p daas-detector --test online_equivalence -- --test-threads 4
cargo test -q -p daas-cluster --test live_equivalence -- --test-threads 4
cargo test -q -p daas-cluster --test revocation_storm -- --test-threads 4
cargo test -q -p daas-measure --test live_equivalence -- --test-threads 4
cargo test -q --test live_equivalence -- --test-threads 4
cargo test -q -p daas-serve --test checkpoint_restore -- --test-threads 4
cargo test -q -p daas-serve --test role_sets -- --test-threads 4

# ---- Observability: recorder-on runs must not change artifacts, and
#      the --metrics-out summaries of a batch and a live run (which
#      carries the live-only counters) must conform to the checked-in
#      schema. ----
cargo test -q --test obs_equivalence -- --test-threads 4
cargo test -q -p daas-detector --test cache_hit_rate -- --test-threads 4
OBS_TMP="$(mktemp -d)"
cargo run -q --release -p daas-cli --bin daas-lab -- --scale 0.05 --exp table1 \
  --metrics-out "$OBS_TMP/metrics.json" --trace-out "$OBS_TMP/trace.jsonl" > /dev/null
cargo run -q --release -p daas-obs --bin obs_validate -- \
  schemas/metrics_summary.schema.json "$OBS_TMP/metrics.json"
cargo run -q --release -p daas-cli --bin daas-lab -- --scale 0.05 --live --window 720 \
  --no-verify --metrics-out "$OBS_TMP/live.json" > /dev/null
cargo run -q --release -p daas-obs --bin obs_validate -- \
  schemas/metrics_summary.schema.json "$OBS_TMP/live.json"
rm -rf "$OBS_TMP"

# ---- Streaming perf smoke: replay a small world through the live
#      pipeline with the recorder on and fail if the incremental
#      clusterer's total window-update time exceeds the re-cluster-
#      from-scratch baseline measured in the same run (relative gate,
#      so the verdict is stable across machine speeds). ----
DAAS_SCALE=0.05 cargo run -q --release -p daas-bench --bin live_smoke

# ---- Serve gate: a real daas-serve daemon on a scale-0.05 world
#      ingests half the chain, checkpoints, is hard-killed, restores in
#      a fresh process, finishes the stream while answering ≥1000
#      concurrent address-risk queries across ≥2 snapshot epochs — and
#      its final artifact must be byte-identical to the one-shot batch
#      pipeline run in-process. ----
cargo test -q --release -p daas-serve --test serve_gate -- --ignored --test-threads 1

# ---- Scrape gate: two scale-0.05 daemons drive the identical command
#      sequence — one polled on /metrics + /healthz for the whole
#      ingest (obs query validated against obs_snapshot.schema.json),
#      one with no scrape listener — and the artifact plus the drained
#      metrics summary must be identical: the telemetry read path
#      records nothing (DESIGN.md §15). ----
cargo test -q --release -p daas-serve --test scrape_gate -- --ignored --test-threads 1

# ---- Concurrent snapshot readers in release, where ingest is fast
#      enough to finish before a late reader thread starts: the test
#      pins its interleaving with a barrier. ----
cargo test -q --release -p daas-serve --test snapshot_queries -- \
  readers_never_block_ingest_and_see_monotonic_epochs

# ---- Scale-sweep smoke: the columnar arena must complete a multi-×
#      run with bounded memory. A small multiplier keeps the smoke
#      fast; the RSS ceiling (generous for the 0.25 world, which peaks
#      well under 200 MiB) catches an accidental return to per-tx
#      heap-allocated storage or an interner/columns leak. The real
#      sweep (scales 1/2/5) regenerates BENCH_scale_sweep.json. ----
SWEEP_TMP="$(mktemp -d)"
DAAS_SCALES=0.25 DAAS_RSS_CEILING_MB=512 \
  DAAS_SCALE_SWEEP_OUT="$SWEEP_TMP/BENCH_scale_sweep.json" \
  cargo run -q --release -p daas-bench --bin scale_sweep
test -s "$SWEEP_TMP/BENCH_scale_sweep.json"
rm -rf "$SWEEP_TMP"

# ---- Scenario pack: every shipped scenario must conform to the
#      scenario schema, and the robustness harness must run the full
#      matrix at a fast smoke scale (honours DAAS_THREADS /
#      DAAS_TRACE / DAAS_METRICS like every exp_* harness). ----
cargo run -q --release -p daas-obs --bin scenario_validate -- \
  schemas/scenario.schema.json scenarios
ROB_TMP="$(mktemp -d)"
DAAS_SCALE=0.25 DAAS_ROBUSTNESS_OUT="$ROB_TMP/BENCH_robustness.json" \
  cargo run -q --release -p daas-bench --bin exp_robustness > /dev/null
test -s "$ROB_TMP/BENCH_robustness.json"
rm -rf "$ROB_TMP"

# ---- Benchmark self-test: builds perfbench/ (which compiles against
#      the engine, snapshot and CowMap APIs) and runs every workload at
#      micro scale, traced and untraced, including the checks that a
#      corrupted oracle fails the run (~25 s plus a build). ----
python3 perfbench/tests/selftest.py

# ---- Everything else. ----
cargo test -q --workspace

# ---- Slow full-scale equivalence (paper-scale world, opt-out with
#      CI_FULL_SCALE=0). ----
if [[ "${CI_FULL_SCALE:-1}" == "1" ]]; then
  cargo test -q --release -p daas-world --test parallel_equivalence -- --ignored --test-threads 1
  cargo test -q --release -p daas-world --test site_pins -- --ignored --test-threads 1
  cargo test -q --release -p daas-measure --test parallel_equivalence -- --ignored --test-threads 1
  cargo test -q --release -p daas-cluster --test live_equivalence -- --ignored --test-threads 1
  cargo test -q --release -p daas-measure --test live_equivalence -- --ignored --test-threads 1
  cargo test -q --release --test live_equivalence -- --ignored --test-threads 1
  cargo test -q --release --test columnar_equivalence -- --ignored --test-threads 1
  # The batch dataset pin and the online detector's event-stream pins.
  cargo test -q --release --test dataset_pins -- --ignored --test-threads 1
  cargo test -q --release -p daas-serve --test snapshot_queries -- --ignored --test-threads 1
  cargo test -q --release -p daas-serve --test checkpoint_restore -- --ignored --test-threads 1
fi

# ---- Recorder cost: the disabled-site and recorder-off/on numbers,
#      written to $BENCH_OUT_DIR/BENCH_obs_overhead.json. ----
cargo bench -p daas-bench --bench obs_overhead
