//! The live-pipeline engine: detector → clusterer → measurement chain
//! plus the chain arena, owned by one thread, publishing immutable
//! [`Snapshot`]s after every ingested window.
//!
//! This is the streaming replay that used to live inside the CLI's
//! `Pipeline::live`, extracted so a long-running daemon, the CLI and
//! tests all drive the identical stage chain. The engine is
//! single-writer by construction: only `ingest_window` /
//! `finish_stream` mutate state, and everything readers see goes
//! through the epoch-swapped [`SnapshotCell`].

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use daas_cluster::{Clustering, OnlineClusterer, OnlineClustererStats};
use daas_detector::{ClassificationCache, Dataset, DatasetCounts, OnlineDetector, SnowballConfig};
use daas_measure::{LiveMeasure, MeasureConfig, MeasureReports};
use daas_world::{collection_end, World, WorldConfig};
use daas_chain::TxId;

use crate::checkpoint::EngineCheckpoint;
use crate::snapshot::{Snapshot, SnapshotCell};
use crate::telemetry::Telemetry;

/// Per-window progress of a streaming replay (one entry per
/// [`Engine::ingest_window`] call that advanced the cursor).
#[derive(Debug, Clone)]
pub struct LiveWindowStats {
    /// Zero-based window index.
    pub index: usize,
    /// First block height in the window.
    pub first_block: u64,
    /// Last block height in the window (inclusive).
    pub last_block: u64,
    /// Transaction watermark after this window.
    pub watermark: TxId,
    /// Contracts admitted this window.
    pub new_contracts: usize,
    /// Operators observed this window.
    pub new_operators: usize,
    /// Affiliates observed this window.
    pub new_affiliates: usize,
    /// Profit-sharing transactions classified this window.
    pub new_ps_txs: usize,
    /// Families after this window's clustering snapshot.
    pub families: usize,
    /// USD stolen across the window's new incidents.
    pub usd_delta: f64,
    /// Detector poll latency.
    pub detect_time: Duration,
    /// Clusterer ingest + snapshot latency.
    pub cluster_time: Duration,
    /// Measurement ingest latency.
    pub measure_time: Duration,
}

/// The streaming pipeline with its world, cache and publication cell.
pub struct Engine {
    config: WorldConfig,
    snowball: SnowballConfig,
    world: World,
    cache: Arc<ClassificationCache>,
    detector: OnlineDetector,
    clusterer: OnlineClusterer,
    measure: LiveMeasure,
    epoch: u64,
    next_block: usize,
    windows: usize,
    /// Role sets shared into snapshots; refreshed only when the dataset
    /// counts actually changed, so an idle window publishes for free.
    role_counts: DatasetCounts,
    contracts: Arc<BTreeSet<eth_types::Address>>,
    operators: Arc<BTreeSet<eth_types::Address>>,
    affiliates: Arc<BTreeSet<eth_types::Address>>,
    cell: Arc<SnapshotCell>,
    /// Live-telemetry hook, attached by the daemon (`None` for the CLI
    /// and tests — publication then has no observer).
    telemetry: Option<Arc<Telemetry>>,
}

impl Engine {
    /// Builds the world and an engine at transaction 0, publishing the
    /// empty epoch-0 snapshot. `_shards` is ignored: the chain and the
    /// caches have no shard setting any more, and the parameter stays
    /// only so the benchmark runner's calls keep compiling.
    pub fn new(
        config: &WorldConfig,
        snowball: &SnowballConfig,
        _shards: usize,
    ) -> Result<Self, String> {
        let world = World::build_with(config, snowball.threads)?;
        let cache = Arc::new(ClassificationCache::new());
        let detector = OnlineDetector::with_cache(snowball.clone(), Arc::clone(&cache));
        let clusterer =
            OnlineClusterer::with_cache(snowball.classifier.clone(), Arc::clone(&cache));
        let measure = LiveMeasure::with_cache(snowball.classifier.clone(), Arc::clone(&cache));
        let total_blocks = world.chain.blocks().len() as u64;
        Ok(Engine {
            config: config.clone(),
            snowball: snowball.clone(),
            world,
            cache,
            detector,
            clusterer,
            measure,
            epoch: 0,
            next_block: 0,
            windows: 0,
            role_counts: DatasetCounts::default(),
            contracts: Arc::new(BTreeSet::new()),
            operators: Arc::new(BTreeSet::new()),
            affiliates: Arc::new(BTreeSet::new()),
            cell: Arc::new(SnapshotCell::new(Snapshot::empty(total_blocks))),
            telemetry: None,
        })
    }

    /// Attaches the daemon's live telemetry: every subsequent
    /// publication notifies it (readiness, snapshot age, the event
    /// journal).
    pub fn attach_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        self.telemetry = Some(telemetry);
    }

    /// Ingests the next window of up to `window_blocks` sealed blocks
    /// through detector → clusterer → measurement, publishes a new
    /// snapshot epoch, and returns the window's deltas — or `None` when
    /// every block is already in.
    pub fn ingest_window(&mut self, window_blocks: u64) -> Option<LiveWindowStats> {
        let window_blocks = window_blocks.max(1) as usize;
        let blocks = self.world.chain.blocks();
        if self.next_block >= blocks.len() {
            return None;
        }
        let t_all = Instant::now();
        let start = self.next_block;
        let end = (start + window_blocks).min(blocks.len());
        let last = &blocks[end - 1];
        let first_block = blocks[start].number;
        let last_block = last.number;
        let watermark = last.first_tx + last.tx_count;
        let _window_span = daas_obs::span!("live.window", index = self.windows, watermark = watermark);

        let before = self.detector.dataset().counts();
        let td = Instant::now();
        let events =
            self.detector.poll_until(&self.world.chain, &self.world.labels, watermark);
        let detect_time = td.elapsed();
        let after = self.detector.dataset().counts();

        let tc = Instant::now();
        self.clusterer.ingest(&self.world.chain, &self.world.labels, &events, watermark);
        let clustering = self.clusterer.clustering(&self.world.chain, &self.world.labels);
        let families = clustering.families.len();
        let cluster_time = tc.elapsed();

        let tm = Instant::now();
        let delta = self.measure.ingest(&self.world.chain, &self.world.oracle, &events);
        let measure_time = tm.elapsed();

        self.next_block = end;
        let stats = LiveWindowStats {
            index: self.windows,
            first_block,
            last_block,
            watermark,
            new_contracts: after.contracts - before.contracts,
            new_operators: after.operators - before.operators,
            new_affiliates: after.affiliates - before.affiliates,
            new_ps_txs: after.ps_txs - before.ps_txs,
            families,
            usd_delta: delta.usd,
            detect_time,
            cluster_time,
            measure_time,
        };
        self.windows += 1;
        self.publish(clustering.families);

        if daas_obs::enabled() {
            daas_obs::inc("live.windows");
            let ms = |d: Duration| d.as_secs_f64() * 1e3;
            daas_obs::observe_ms_l("live.window.update_ms", "stage", "detect", ms(detect_time));
            daas_obs::observe_ms_l("live.window.update_ms", "stage", "cluster", ms(cluster_time));
            daas_obs::observe_ms_l("live.window.update_ms", "stage", "measure", ms(measure_time));
            daas_obs::observe_ms("serve.ingest_ms", ms(t_all.elapsed()));
        }
        Some(stats)
    }

    /// Drains any tail past the last sealed block (also covers empty
    /// worlds) and publishes a final epoch. Idempotent.
    pub fn finish_stream(&mut self) {
        let total_txs = self.world.chain.transactions().len() as TxId;
        let events = self.detector.poll(&self.world.chain, &self.world.labels);
        self.clusterer.ingest(&self.world.chain, &self.world.labels, &events, total_txs);
        self.measure.ingest(&self.world.chain, &self.world.oracle, &events);
        self.next_block = self.world.chain.blocks().len();
        let families = self.clusterer.clustering(&self.world.chain, &self.world.labels).families;
        self.publish(families);
    }

    /// Runs every remaining window, then the tail drain. `on_window`
    /// fires after each window.
    pub fn run_to_end(
        &mut self,
        window_blocks: u64,
        mut on_window: impl FnMut(&LiveWindowStats),
    ) -> Vec<LiveWindowStats> {
        let mut windows = Vec::new();
        while let Some(stats) = self.ingest_window(window_blocks) {
            on_window(&stats);
            windows.push(stats);
        }
        self.finish_stream();
        windows
    }

    /// Refreshes the role sets if the dataset grew, builds the next
    /// snapshot and swaps it into the cell (`serve.publish_ms`).
    fn publish(&mut self, families: Vec<Arc<daas_cluster::Family>>) {
        let started = daas_obs::enabled().then(Instant::now);
        self.epoch += 1;
        let counts = self.detector.dataset().counts();
        if counts != self.role_counts {
            let dataset = self.detector.dataset();
            self.contracts = Arc::new(dataset.contracts.clone());
            self.operators = Arc::new(dataset.operators.clone());
            self.affiliates = Arc::new(dataset.affiliates.clone());
            self.role_counts = counts;
        }
        let blocks = self.world.chain.blocks().len() as u64;
        let done = self.next_block as u64 >= blocks
            && self.detector.cursor() >= self.world.chain.transactions().len() as TxId;
        self.cell.store(Snapshot::new(
            self.epoch,
            self.detector.cursor(),
            self.next_block as u64,
            blocks,
            done,
            counts,
            Arc::new(families),
            Arc::clone(&self.contracts),
            Arc::clone(&self.operators),
            Arc::clone(&self.affiliates),
            self.measure.incidents_snapshot(),
            self.measure.total_usd(),
        ));
        if let Some(started) = started {
            daas_obs::observe_ms("serve.publish_ms", started.elapsed().as_secs_f64() * 1e3);
            daas_obs::gauge("serve.snapshot.epoch", self.epoch as f64);
        }
        if let Some(telemetry) = &self.telemetry {
            telemetry.on_publish(self.epoch);
        }
    }

    /// The publication cell readers should clone out of.
    pub fn snapshot_cell(&self) -> Arc<SnapshotCell> {
        Arc::clone(&self.cell)
    }

    /// The currently published snapshot.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.cell.load()
    }

    /// Current publication epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Transactions ingested so far.
    pub fn watermark(&self) -> TxId {
        self.detector.cursor()
    }

    /// `true` once the whole chain (windows + tail drain) is ingested.
    pub fn done(&self) -> bool {
        self.next_block >= self.world.chain.blocks().len()
            && self.detector.cursor() >= self.world.chain.transactions().len() as TxId
    }

    /// The dataset the online detector has converged to so far.
    pub fn dataset(&self) -> &Dataset {
        self.detector.dataset()
    }

    /// The current incremental clustering snapshot.
    pub fn clustering(&mut self) -> Clustering {
        self.clusterer.clustering(&self.world.chain, &self.world.labels)
    }

    /// Incremental-clusterer work counters.
    pub fn clusterer_stats(&self) -> OnlineClustererStats {
        self.clusterer.stats()
    }

    /// The canonical §6 bundle from the live accumulators (routes
    /// through the identical batch path; byte-identical at equal
    /// watermarks).
    pub fn reports(&mut self, measure_cfg: &MeasureConfig) -> MeasureReports {
        self.measure.reports(
            &self.world.chain,
            self.detector.dataset(),
            &self.world.oracle,
            &self.world.labels,
            30 * 86_400,
            collection_end(),
            measure_cfg,
        )
    }

    /// The generated world the engine replays.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// The shared classification table (batch re-verification over the
    /// same table classifies nothing twice).
    pub fn cache(&self) -> &Arc<ClassificationCache> {
        &self.cache
    }

    /// The snowball configuration the engine runs.
    pub fn snowball(&self) -> &SnowballConfig {
        &self.snowball
    }

    /// Consumes the engine, handing the world back to the caller.
    pub fn into_world(self) -> World {
        self.world
    }

    /// Exports the full live state. Call only between windows (never
    /// mid-poll); see [`EngineCheckpoint`] for the determinism
    /// contract.
    pub fn checkpoint(&self) -> EngineCheckpoint {
        EngineCheckpoint {
            version: EngineCheckpoint::VERSION,
            config: self.config.clone(),
            snowball: self.snowball.clone(),
            epoch: self.epoch,
            windows: self.windows,
            detector: self.detector.checkpoint(),
            clusterer: self.clusterer.checkpoint(&self.world.chain),
            measure: self.measure.checkpoint(),
        }
    }

    /// Rebuilds an engine from a checkpoint: the world is regenerated
    /// deterministically from the embedded config, every address
    /// re-interns against the fresh arena, and the restored engine
    /// resumes mid-stream — converging to artifacts byte-identical to
    /// an uninterrupted run.
    pub fn restore(ckpt: &EngineCheckpoint) -> Result<Self, String> {
        if ckpt.version != EngineCheckpoint::VERSION {
            return Err(format!(
                "checkpoint version {} (this build reads {})",
                ckpt.version,
                EngineCheckpoint::VERSION
            ));
        }
        let mut engine = Engine::new(&ckpt.config, &ckpt.snowball, 0)?;
        engine.detector = OnlineDetector::restore(
            ckpt.snowball.clone(),
            Arc::clone(&engine.cache),
            &engine.world.chain,
            &ckpt.detector,
        )
        .map_err(|e| format!("detector checkpoint: {e}"))?;
        engine.clusterer = OnlineClusterer::restore(
            ckpt.snowball.classifier.clone(),
            Arc::clone(&engine.cache),
            &engine.world.chain,
            &engine.world.labels,
            &ckpt.clusterer,
        )
        .map_err(|e| format!("clusterer checkpoint: {e}"))?;
        engine.measure = LiveMeasure::restore(
            ckpt.snowball.classifier.clone(),
            Arc::clone(&engine.cache),
            &ckpt.measure,
        )
        .map_err(|e| format!("measure checkpoint: {e}"))?;
        engine.epoch = ckpt.epoch;
        engine.windows = ckpt.windows;
        // Cursor → block index: a window always ends on a block
        // boundary, so the cursor partitions the block list exactly.
        let cursor = engine.detector.cursor();
        engine.next_block = engine
            .world
            .chain
            .blocks()
            .partition_point(|b| b.first_tx + b.tx_count <= cursor);
        let families = engine.clustering().families;
        engine.publish(families);
        Ok(engine)
    }
}
