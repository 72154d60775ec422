//! The incremental clusterer must equal the batch prefix oracle at
//! *every* poll boundary: after each window, `OnlineClusterer::clustering`
//! is diffed (as JSON) against `cluster_prefix` over the chain prefix and
//! the detector's dataset at that watermark.

use daas_chain::TxId;
use daas_cluster::{cluster_prefix, OnlineClusterer};
use daas_detector::{OnlineDetector, SnowballConfig};
use daas_world::{World, WorldConfig};

/// Replays `world` in transaction windows of the given sizes (cycled
/// until the chain is exhausted), checking the clusterer against the
/// batch oracle at each boundary where `check(boundary_index)` is true.
fn replay_and_check(config: &WorldConfig, steps: &[u32], check: impl Fn(usize) -> bool) {
    let world = World::build(config).expect("world");
    let snowball = SnowballConfig::default();
    let mut detector = OnlineDetector::new(snowball.clone());
    let mut clusterer = OnlineClusterer::new(snowball.classifier.clone());
    let total = world.chain.transactions().len() as TxId;

    let mut at: TxId = 0;
    let mut boundary = 0usize;
    let mut step_iter = steps.iter().cycle();
    while at < total {
        at = (at + step_iter.next().expect("cycled")).min(total);
        let events = detector.poll_until(&world.chain, &world.labels, at);
        clusterer.ingest(&world.chain, &world.labels, detector.dataset(), &events, at);
        if check(boundary) || at == total {
            let live = clusterer.clustering(&world.labels);
            let oracle = cluster_prefix(&world.chain, &world.labels, detector.dataset(), at);
            assert_eq!(
                serde_json::to_string(&live).unwrap(),
                serde_json::to_string(&oracle).unwrap(),
                "clustering diverged from the batch prefix at tx {at} (boundary {boundary})"
            );
        }
        boundary += 1;
    }
    assert_eq!(clusterer.watermark(), total);
}

#[test]
fn micro_world_tx_window_1_checks_every_boundary() {
    // Window of a single transaction: the most adversarial interleaving.
    replay_and_check(&WorldConfig::micro(71), &[1], |_| true);
}

#[test]
fn micro_world_small_windows_check_every_boundary() {
    replay_and_check(&WorldConfig::micro(72), &[7, 1, 13], |_| true);
}

#[test]
fn micro_world_window_64_checks_every_boundary() {
    replay_and_check(&WorldConfig::micro(73), &[64], |_| true);
}

#[test]
fn micro_world_single_poll_matches() {
    replay_and_check(&WorldConfig::micro(74), &[u32::MAX], |_| true);
}

#[test]
fn tiny_world_sampled_boundaries() {
    // Sampled oracle (every 16th boundary + the final one): the oracle
    // re-clusters from scratch, so checking every boundary at this scale
    // would dominate the suite's runtime.
    replay_and_check(&WorldConfig::tiny(75), &[97, 3, 411, 64], |b| b % 16 == 0);
}

#[test]
fn tiny_world_window_1_sampled() {
    replay_and_check(&WorldConfig::tiny(76), &[1], |b| b % 512 == 0);
}

#[test]
#[ignore = "small world, many oracle re-clusterings; run via ci.sh or -- --ignored"]
fn small_world_sampled_boundaries() {
    replay_and_check(&WorldConfig::small(77), &[613, 64, 2048], |b| b % 8 == 0);
}
