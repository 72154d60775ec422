//! End-to-end streaming equivalence: `Pipeline::live` (online detector →
//! incremental clusterer → live measurement, one shared classification
//! memo) must converge to exactly the one-shot batch pipeline — for any
//! window size, at any world scale. `LiveRun::batch_matches` is the
//! pipeline's own built-in diff (dataset member sets, clustering JSON,
//! report-bundle JSON); the proptest below additionally drives the
//! streaming stack through arbitrary transaction-window interleavings.

use std::sync::OnceLock;

use daas_cli::Pipeline;
use daas_lab::chain::TxId;
use daas_lab::cluster::{cluster_prefix, OnlineClusterer};
use daas_lab::detector::{OnlineDetector, SnowballConfig};
use daas_lab::measure::{LiveMeasure, MeasureConfig, MeasureCtx};
use daas_lab::world::{collection_end, World, WorldConfig};
use proptest::prelude::*;

fn assert_live_matches(config: &WorldConfig, window_blocks: u64) {
    let run = Pipeline::live(
        config,
        &SnowballConfig::default(),
        window_blocks,
        &MeasureConfig::sequential(),
        true,
        |_| {},
    )
    .expect("live pipeline");
    assert!(
        run.batch_matches,
        "streaming (window {window_blocks}) diverged from batch at scale {} seed {}",
        config.scale, config.seed
    );
    assert!(!run.windows.is_empty());
}

#[test]
fn micro_worlds_all_window_sizes() {
    for window in [1, 7, 64, u64::MAX] {
        assert_live_matches(&WorldConfig::micro(91), window);
    }
}

#[test]
fn tiny_worlds_all_window_sizes() {
    for window in [1, 7, 64, u64::MAX] {
        assert_live_matches(&WorldConfig::tiny(92), window);
    }
}

#[test]
fn small_world_representative_windows() {
    for window in [64, u64::MAX] {
        assert_live_matches(&WorldConfig::small(93), window);
    }
}

#[test]
#[ignore = "small world with per-block windows; run via ci.sh or -- --ignored"]
fn small_world_fine_windows() {
    for window in [1, 7] {
        assert_live_matches(&WorldConfig::small(94), window);
    }
}

#[test]
#[ignore = "paper-scale world; run via ci.sh or -- --ignored"]
fn paper_scale_live_run() {
    assert_live_matches(&WorldConfig::paper_scale(42), 7_200);
}

/// One shared micro world for the interleaving property (world
/// generation dominates per-case cost otherwise).
fn prop_world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| World::build(&WorldConfig::micro(95)).expect("world"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any interleaving of transaction-window sizes — including empty
    /// windows and windows of one — converges to the batch clustering
    /// and report bundle byte-identically.
    #[test]
    fn arbitrary_interleavings_converge(windows in proptest::collection::vec(0u32..=17, 1..24)) {
        let world = prop_world();
        let snowball = SnowballConfig::default();
        let mut detector = OnlineDetector::new(snowball.clone());
        let mut clusterer = OnlineClusterer::new(snowball.classifier.clone());
        let mut measure = LiveMeasure::new(snowball.classifier.clone());
        let total = world.chain.transactions().len() as TxId;

        let mut at: TxId = 0;
        let mut step_iter = windows.iter().cycle();
        // Cycle the sampled window sizes; all-zero vectors still finish
        // through the final catch-up poll below.
        for _ in 0..(windows.len() * 64) {
            if at >= total {
                break;
            }
            at = (at + step_iter.next().unwrap()).min(total);
            let events = detector.poll_until(&world.chain, &world.labels, at);
            clusterer.ingest(&world.chain, &world.labels, &events, at);
            measure.ingest(&world.chain, &world.oracle, &events);
        }
        let events = detector.poll(&world.chain, &world.labels);
        clusterer.ingest(&world.chain, &world.labels, &events, total);
        measure.ingest(&world.chain, &world.oracle, &events);

        let dataset = detector.dataset();
        let live_clustering = clusterer.clustering(&world.chain, &world.labels);
        let batch_clustering = cluster_prefix(&world.chain, &world.labels, dataset, total);
        prop_assert_eq!(
            serde_json::to_string(&live_clustering).unwrap(),
            serde_json::to_string(&batch_clustering).unwrap()
        );

        let cfg = MeasureConfig::sequential();
        let live_reports = measure.reports(
            &world.chain, dataset, &world.oracle, &world.labels, 30 * 86_400, collection_end(), &cfg,
        );
        let batch_reports = MeasureCtx::new(&world.chain, dataset, &world.oracle).reports(
            &world.labels, 30 * 86_400, collection_end(), &cfg,
        );
        prop_assert_eq!(
            serde_json::to_string(&live_reports).unwrap(),
            serde_json::to_string(&batch_reports).unwrap()
        );
    }
}
