//! One-call pipeline: world → snowball → clustering, plus the §6
//! measurement bundle built once for every renderer.
//!
//! Two drivers share every stage implementation:
//! * [`run_pipeline`] — the one-shot batch run the paper's tables are
//!   rendered from;
//! * [`Pipeline::live`] — the streaming replay, now a thin client over
//!   the [`daas_serve::Engine`] (the chain delivered in block windows
//!   through the online detector, incremental clusterer and live
//!   measurement accumulators), then re-verified against the batch
//!   pipeline over the same classification table (DESIGN.md §10, §13).

use std::sync::Arc;
use std::time::{Duration, Instant};

use daas_chain::{Chain, Timestamp};
use daas_cluster::{cluster, Clustering, FamilyForensics, OnlineClustererStats};
use daas_detector::{build_dataset, build_dataset_with_cache, Dataset, SnowballConfig};
use daas_measure::{MeasureConfig, MeasureCtx, MeasureReports};
use daas_serve::Engine;
use daas_world::{collection_end, World, WorldConfig};

pub use daas_serve::LiveWindowStats;

/// Everything downstream experiments need, built once.
pub struct Pipeline {
    /// The generated world (observables + ground truth).
    pub world: World,
    /// The discovered dataset.
    pub dataset: Dataset,
    /// The family clustering.
    pub clustering: Clustering,
    /// Wall-clock cost of each stage: (world, snowball, clustering).
    pub timings: (Duration, Duration, Duration),
}

/// The measurement context and the full §6 report bundle, computed once
/// and shared by every renderer that needs them.
pub struct Measured<'a> {
    /// The incident-attribution context (feature cache, USD valuation).
    pub ctx: MeasureCtx<'a>,
    /// Every independent §6 report.
    pub reports: MeasureReports,
}

impl Pipeline {
    /// Measurement context over the pipeline's outputs.
    pub fn measure(&self) -> MeasureCtx<'_> {
        MeasureCtx::new(&self.world.chain, &self.dataset, &self.world.oracle)
    }

    /// Builds the measurement context and the full §6 report bundle once
    /// (the paper's parameters: one-month inactivity threshold, census at
    /// collection end), fanning the reports across `cfg.threads`.
    pub fn measured(&self, cfg: &MeasureConfig) -> Measured<'_> {
        let ctx = self.measure();
        let reports = ctx.reports(&self.world.labels, 30 * 86_400, collection_end(), cfg);
        Measured { ctx, reports }
    }

    /// Per-family profile + lifecycle rows.
    pub fn forensics(&self, min_txs: usize, inactive_secs: u64, as_of: Timestamp) -> FamilyForensics {
        daas_cluster::family_forensics(
            &self.world.chain,
            &self.dataset,
            &self.clustering,
            min_txs,
            inactive_secs,
            as_of,
        )
    }
}

/// The result of a full streaming replay, plus the batch re-verification
/// verdict.
pub struct LiveRun {
    /// The generated world.
    pub world: World,
    /// The dataset the *online* detector converged to.
    pub dataset: Dataset,
    /// The final incremental clustering snapshot.
    pub clustering: Clustering,
    /// The canonical §6 bundle from the live accumulators.
    pub reports: MeasureReports,
    /// Per-window progress, in replay order.
    pub windows: Vec<LiveWindowStats>,
    /// Incremental-clusterer counters (merges, rebuilds, cache reuse).
    pub clusterer_stats: OnlineClustererStats,
    /// `true` when dataset, clustering and reports are byte-identical to
    /// a one-shot batch run over the same classification table
    /// (vacuously `true` when [`Pipeline::live`] ran with
    /// `verify = false`).
    pub batch_matches: bool,
    /// Wall-clock cost of (world, streaming replay, final reports,
    /// batch re-verification).
    pub live_timings: (Duration, Duration, Duration, Duration),
}

impl Pipeline {
    /// Replays the generated world through the streaming stack in
    /// windows of `window_blocks` blocks: online detector → incremental
    /// clusterer → live measurement, one shared classification table
    /// across all three (and the final batch re-verification — the
    /// snowball re-run then classifies nothing twice).
    ///
    /// `on_window` fires after each window with that window's deltas and
    /// per-stage latencies. With `verify`, the final artifacts are
    /// re-verified against the one-shot batch pipeline and
    /// [`LiveRun::batch_matches`] reports the verdict (the CLI turns a
    /// mismatch into a failing exit code). Without it, the replay skips
    /// that second snowball + clustering + measurement pass entirely
    /// (`--no-verify`).
    pub fn live(
        config: &WorldConfig,
        snowball: &SnowballConfig,
        window_blocks: u64,
        measure_cfg: &MeasureConfig,
        verify: bool,
        mut on_window: impl FnMut(&LiveWindowStats),
    ) -> Result<LiveRun, String> {
        if window_blocks == 0 {
            return Err("window must span at least one block".into());
        }
        let t0 = Instant::now();
        let mut engine = Engine::new(config, snowball, 0)?;
        let t1 = Instant::now();

        let mut windows = Vec::new();
        while let Some(stats) = engine.ingest_window(window_blocks) {
            on_window(&stats);
            windows.push(stats);
        }
        engine.finish_stream();
        let clustering = engine.clustering();
        let t2 = Instant::now();

        let dataset = engine.dataset().clone();
        let reports = engine.reports(measure_cfg);
        let t3 = Instant::now();

        let clusterer_stats = engine.clusterer_stats();
        let cache = Arc::clone(engine.cache());
        let world = engine.into_world();

        // Batch re-verification over the same classification table.
        let batch_matches = if verify {
            let batch_dataset =
                build_dataset_with_cache(&world.chain, &world.labels, snowball, &cache);
            let batch_clustering = cluster(&world.chain, &world.labels, &batch_dataset);
            let batch_reports =
                MeasureCtx::new(&world.chain, &batch_dataset, &world.oracle).reports(
                    &world.labels,
                    30 * 86_400,
                    collection_end(),
                    measure_cfg,
                );
            dataset.contracts == batch_dataset.contracts
                && dataset.operators == batch_dataset.operators
                && dataset.affiliates == batch_dataset.affiliates
                && dataset.ps_txs == batch_dataset.ps_txs
                && to_json(&clustering)? == to_json(&batch_clustering)?
                && to_json(&reports)? == to_json(&batch_reports)?
        } else {
            true
        };
        let t4 = Instant::now();
        record_stage_obs(
            &world.chain,
            &[("world", t1 - t0), ("replay", t2 - t1), ("reports", t3 - t2), ("verify", t4 - t3)],
        );

        Ok(LiveRun {
            world,
            dataset,
            clustering,
            reports,
            windows,
            clusterer_stats,
            batch_matches,
            live_timings: (t1 - t0, t2 - t1, t3 - t2, t4 - t3),
        })
    }
}

fn to_json<T: serde::Serialize>(value: &T) -> Result<String, String> {
    serde_json::to_string(value).map_err(|e| e.to_string())
}

/// Publishes the per-stage wall clocks (`pipeline.stage_ms{stage=…}`)
/// and the columnar arena's heap footprint
/// (`chain.arena.bytes{column=…}`) into the obs registry. The
/// `--timings` line and the `--metrics-out` summary read these gauges
/// instead of keeping their own books.
fn record_stage_obs(chain: &Chain, stages: &[(&str, Duration)]) {
    if !daas_obs::enabled() {
        return;
    }
    for (stage, took) in stages {
        daas_obs::gauge_l("pipeline.stage_ms", "stage", stage, took.as_secs_f64() * 1e3);
    }
    for (column, bytes) in chain.transactions().column_bytes() {
        daas_obs::gauge_l("chain.arena.bytes", "column", column, bytes as f64);
    }
}

/// Runs world generation, snowball sampling and clustering. The snowball
/// `threads` knob sets the world planner's worker count; snowball and
/// clustering are sequential.
pub fn run_pipeline(config: &WorldConfig, snowball: &SnowballConfig) -> Result<Pipeline, String> {
    let t0 = Instant::now();
    let world = World::build_with(config, snowball.threads)?;
    let t1 = Instant::now();
    let dataset = build_dataset(&world.chain, &world.labels, snowball);
    let t2 = Instant::now();
    let clustering = cluster(&world.chain, &world.labels, &dataset);
    let t3 = Instant::now();
    record_stage_obs(
        &world.chain,
        &[("world", t1 - t0), ("snowball", t2 - t1), ("clustering", t3 - t2)],
    );
    Ok(Pipeline {
        world,
        dataset,
        clustering,
        timings: (t1 - t0, t2 - t1, t3 - t2),
    })
}
