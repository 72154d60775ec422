//! The streaming measurement accumulators must agree with the batch
//! context: counter-valued views exactly at every poll boundary, the
//! canonical report bundle byte-identically at the end.

use daas_chain::TxId;
use daas_detector::{OnlineDetector, SnowballConfig};
use daas_measure::{ratio_histogram, LiveMeasure, MeasureConfig, MeasureCtx};
use daas_world::{collection_end, World, WorldConfig};

fn replay(config: &WorldConfig, steps: &[u32], check_boundaries: bool) {
    let world = World::build(config).expect("world");
    let snowball = SnowballConfig::default();
    let mut detector = OnlineDetector::new(snowball.clone());
    let mut live = LiveMeasure::new(snowball.classifier.clone());
    let total = world.chain.transactions().len() as TxId;

    let mut at: TxId = 0;
    let mut step_iter = steps.iter().cycle();
    while at < total {
        at = (at + step_iter.next().expect("cycled")).min(total);
        let events = detector.poll_until(&world.chain, &world.labels, at);
        live.ingest(&world.chain, &world.oracle, &events);
        if check_boundaries {
            // Counter-valued views are exact at every boundary.
            let snapshot = detector.dataset().clone();
            let ctx = MeasureCtx::new(&world.chain, &snapshot, &world.oracle);
            assert_eq!(live.incident_count(), ctx.incidents().len(), "at tx {at}");
            assert_eq!(live.victim_count(), ctx.victims().len(), "at tx {at}");
            assert_eq!(live.ratio_histogram(), ratio_histogram(&ctx), "at tx {at}");
        }
    }

    // The canonical bundle is byte-identical to the batch bundle.
    let dataset = detector.dataset();
    let cfg = MeasureConfig::sequential();
    let batch = MeasureCtx::new(&world.chain, dataset, &world.oracle).reports(
        &world.labels,
        30 * 86_400,
        collection_end(),
        &cfg,
    );
    let streamed = live.reports(
        &world.chain,
        dataset,
        &world.oracle,
        &world.labels,
        30 * 86_400,
        collection_end(),
    );
    assert_eq!(
        serde_json::to_string(&batch).unwrap(),
        serde_json::to_string(&streamed).unwrap(),
        "report bundle diverged"
    );
}

#[test]
fn micro_world_every_boundary_exact() {
    replay(&WorldConfig::micro(81), &[7, 1, 13], true);
}

#[test]
fn micro_world_window_1_every_boundary() {
    replay(&WorldConfig::micro(82), &[1], true);
}

#[test]
fn micro_world_single_poll() {
    replay(&WorldConfig::micro(83), &[u32::MAX], true);
}

#[test]
fn tiny_world_final_bundle_matches() {
    // Boundary re-contexting is O(n) per poll; at this scale only the
    // final byte-identity is asserted.
    replay(&WorldConfig::tiny(84), &[97, 3, 411, 64], false);
}

#[test]
#[ignore = "small world; run via ci.sh or -- --ignored"]
fn small_world_final_bundle_matches() {
    replay(&WorldConfig::small(85), &[613, 64, 2048], false);
}
