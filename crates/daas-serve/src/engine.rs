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
//!
//! A publish pays for what the window changed. The family vector is the
//! clusterer's `Arc`-shared assembly and the incident map a
//! copy-on-write clone; a role set that grew is rebuilt from the spare
//! the engine keeps of the set it published before the current one.
//! Once no reader holds that spare it is extended in place by the
//! members admitted since (the detector events of every publish since
//! the spare's, a restore's replay included), so a window copies no
//! role set; a spare a reader still holds is replaced by a copy of the
//! dataset's set, as is, defensively, one that does not come out the
//! size of the dataset's set.
//!
//! Every window, the tail drain and a restore run one stage chain,
//! [`Engine::pass`]: a restore rebuilds the world and replays the chain
//! to its checkpoint's cursor in a single pass, which rebuilds the state
//! an uninterrupted run holds there (DESIGN.md §13).

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use daas_cluster::{Clustering, Family, OnlineClusterer, OnlineClustererStats};
use daas_detector::{ClassificationCache, Dataset, DetectorEvent, OnlineDetector, SnowballConfig};
use daas_measure::{LiveMeasure, MeasureConfig, MeasureReports};
use daas_world::{collection_end, World, WorldConfig};
use daas_chain::TxId;
use eth_types::Address;

use crate::checkpoint::{ChainFingerprint, EngineCheckpoint, StreamCursor};
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
    /// The role sets shared into snapshots (module docs).
    contracts: RoleSet,
    operators: RoleSet,
    affiliates: RoleSet,
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
            contracts: RoleSet::default(),
            operators: RoleSet::default(),
            affiliates: RoleSet::default(),
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
        let Pass { events, families, usd, detect_time, cluster_time, measure_time } =
            self.pass(watermark);
        let after = self.detector.dataset().counts();

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
            families: families.len(),
            usd_delta: usd,
            detect_time,
            cluster_time,
            measure_time,
        };
        self.windows += 1;
        self.publish(families, &events);

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
        let pass = self.pass(self.world.chain.transactions().len() as TxId);
        self.next_block = self.world.chain.blocks().len();
        self.publish(pass.families, &pass.events);
    }

    /// Runs the stage chain over the transactions from the cursor up to
    /// `watermark`: the detector's poll, the clusterer's ingest and
    /// snapshot, and the measurement's ingest of the poll's events.
    fn pass(&mut self, watermark: TxId) -> Pass {
        let (chain, labels) = (&self.world.chain, &self.world.labels);
        let td = Instant::now();
        let events = self.detector.poll_until(chain, labels, watermark);
        let detect_time = td.elapsed();

        let tc = Instant::now();
        self.clusterer.ingest(chain, labels, &events, watermark);
        let families = self.clusterer.clustering(chain, labels).families;
        let cluster_time = tc.elapsed();

        let tm = Instant::now();
        let usd = self.measure.ingest(chain, &self.world.oracle, &events).usd;
        let measure_time = tm.elapsed();
        Pass { events, families, usd, detect_time, cluster_time, measure_time }
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

    /// Refreshes the role sets that grew, given the detector events
    /// since the last publish, builds the next snapshot and swaps it into
    /// the cell (`serve.publish_ms`).
    fn publish(&mut self, families: Vec<Arc<Family>>, events: &[DetectorEvent]) {
        let started = daas_obs::enabled().then(Instant::now);
        self.epoch += 1;
        let mut admitted: [Vec<Address>; 3] = Default::default();
        for event in events {
            match *event {
                DetectorEvent::ContractAdmitted { contract, .. } => admitted[0].push(contract),
                DetectorEvent::OperatorObserved(op) => admitted[1].push(op),
                DetectorEvent::AffiliateObserved(aff) => admitted[2].push(aff),
                DetectorEvent::PsTransaction { .. } => {}
            }
        }
        let dataset = self.detector.dataset();
        let roles = [
            (&mut self.contracts, &dataset.contracts),
            (&mut self.operators, &dataset.operators),
            (&mut self.affiliates, &dataset.affiliates),
        ];
        for ((set, members), admitted) in roles.into_iter().zip(admitted) {
            if let Some(outcome) = set.refresh(members, admitted) {
                daas_obs::add_l("serve.role_sets", "outcome", outcome, 1);
            }
        }
        let counts = dataset.counts();
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
            Arc::clone(&self.contracts.published),
            Arc::clone(&self.operators.published),
            Arc::clone(&self.affiliates.published),
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

    /// Incremental-clusterer work counters of this process: a
    /// checkpoint does not carry them, so after a restore they count
    /// the replay and what followed.
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

    /// The stream's position as a checkpoint. Call only between windows
    /// (never mid-poll), so the cursor sits on a block boundary; see
    /// [`EngineCheckpoint`] for the format.
    pub fn checkpoint(&self) -> EngineCheckpoint {
        let cursor = self.detector.cursor();
        EngineCheckpoint {
            version: EngineCheckpoint::VERSION,
            config: self.config.clone(),
            snowball: self.snowball.clone(),
            epoch: self.epoch,
            windows: self.windows,
            detector: StreamCursor { cursor },
            chain: Some(ChainFingerprint::of(&self.world.chain, cursor)),
        }
    }

    /// Rebuilds an engine from a checkpoint: the world is regenerated
    /// from the embedded config, the checkpoint is checked against the
    /// rebuilt chain, and the stage chain a window runs replays the
    /// chain to the cursor, once. The replay rebuilds the state an
    /// uninterrupted run holds there, so the restored engine converges
    /// to artifacts byte-identical to that run's. The restore publishes
    /// epoch `ckpt.epoch + 1`, and the next window is number
    /// `ckpt.windows`.
    ///
    /// Refuses, with an error naming the field, an unknown version, a
    /// version-2 checkpoint without its chain fingerprint or with one
    /// the rebuilt chain does not match, and a cursor past the chain or
    /// off a block boundary.
    pub fn restore(ckpt: &EngineCheckpoint) -> Result<Self, String> {
        ckpt.check_format()?;
        let mut engine = Engine::new(&ckpt.config, &ckpt.snowball, 0)?;
        let next_block = ckpt.resume_block(&engine.world.chain)?;
        let pass = engine.pass(ckpt.detector.cursor);
        engine.next_block = next_block;
        engine.epoch = ckpt.epoch;
        engine.windows = ckpt.windows;
        engine.publish(pass.families, &pass.events);
        Ok(engine)
    }
}

/// What one [`Engine::pass`] produced.
struct Pass {
    /// The detector's events, in admission order.
    events: Vec<DetectorEvent>,
    /// The clusterer's snapshot after the pass.
    families: Vec<Arc<Family>>,
    /// USD stolen across the pass's new incidents.
    usd: f64,
    detect_time: Duration,
    cluster_time: Duration,
    measure_time: Duration,
}

/// One role set as the snapshots share it, and the spare it is rebuilt
/// from (module docs).
#[derive(Default)]
struct RoleSet {
    /// The set the latest snapshot holds, equal to the dataset's.
    published: Arc<BTreeSet<Address>>,
    /// The set published before `published`, if any: a subset of it.
    spare: Option<Arc<BTreeSet<Address>>>,
    /// The members `published` holds and `spare` lacks.
    behind: Vec<Address>,
}

impl RoleSet {
    /// Brings the published set up to `members`, the dataset's set,
    /// given the members `admitted` since the last publish. Returns
    /// `None` when the set did not grow, else whether the spare was
    /// `"reused"` or the set `"copied"`.
    fn refresh(
        &mut self,
        members: &BTreeSet<Address>,
        admitted: Vec<Address>,
    ) -> Option<&'static str> {
        // A set only grows, so an equal size means nothing was admitted.
        if members.len() == self.published.len() {
            return None;
        }
        // The spare is a past dataset's set, and every member added to
        // it is in the dataset, so the right size means the same set.
        let reused = self.spare.take().and_then(|mut spare| {
            let set = Arc::get_mut(&mut spare)?;
            set.extend(self.behind.iter().chain(&admitted).copied());
            (set.len() == members.len()).then_some(spare)
        });
        let outcome = if reused.is_some() { "reused" } else { "copied" };
        let next = reused.unwrap_or_else(|| Arc::new(members.clone()));
        debug_assert!(*next == *members, "a published role set equals the dataset's");
        self.spare = Some(std::mem::replace(&mut self.published, next));
        self.behind = admitted;
        Some(outcome)
    }
}
