//! The classification memo's contract with the batch snowball. A warm
//! memo serves a repeat batch run entirely from cache — the live
//! pipeline's batch re-verification (DESIGN.md §10) leans on this, and
//! `cache.classify.hit` / `cache.classify.miss` in the obs registry are
//! exactly the [`ClassificationCache::stats`] deltas pinned here. The
//! snowball classifies only what its sequential scan reaches, whatever
//! the thread setting, and the online detector can share the memo.

use std::sync::Arc;

use daas_detector::{
    build_dataset_with_cache, ClassificationCache, Dataset, OnlineDetector, SnowballConfig,
};
use daas_world::{World, WorldConfig};

fn json(ds: &Dataset) -> String {
    serde_json::to_string(ds).expect("dataset serialises")
}

#[test]
fn warm_rerun_hit_rate_is_100_percent() {
    let world = World::build(&WorldConfig::micro(91)).expect("world builds");
    let cache = ClassificationCache::new();
    let cfg = SnowballConfig { threads: 1, ..Default::default() };

    let cold = build_dataset_with_cache(&world.chain, &world.labels, &cfg, &cache);
    let after_cold = cache.stats();
    assert!(after_cold.misses > 0, "cold run must classify");
    assert_eq!(
        after_cold.entries as u64, after_cold.misses,
        "every miss fills exactly one memo entry"
    );

    let warm = build_dataset_with_cache(&world.chain, &world.labels, &cfg, &cache);
    let after_warm = cache.stats();
    assert_eq!(warm.ps_txs, cold.ps_txs, "warm run must reproduce the dataset");

    let warm_hits = after_warm.hits - after_cold.hits;
    let warm_misses = after_warm.misses - after_cold.misses;
    assert!(warm_hits > 0, "warm run must touch the cache");
    assert_eq!(warm_misses, 0, "warm run re-classified {warm_misses} transactions");
    assert_eq!(after_warm.entries, after_cold.entries, "warm run grew the memo");
}

/// `threads` sets the world build's worker count and nothing in the
/// snowball: a `threads: 2` build classifies exactly the transactions a
/// `threads: 1` build does, not whole frontier histories up front.
#[test]
fn classified_set_does_not_depend_on_threads() {
    let world = World::build(&WorldConfig::micro(91)).expect("world builds");
    let entries = |threads| {
        let cache = ClassificationCache::new();
        let cfg = SnowballConfig { threads, ..Default::default() };
        build_dataset_with_cache(&world.chain, &world.labels, &cfg, &cache);
        cache.len()
    };
    assert_eq!(entries(2), entries(1), "threads: 2 classified a different set");
}

#[test]
fn warm_cache_changes_nothing() {
    let world = World::build(&WorldConfig::tiny(11)).expect("world");
    let cache = ClassificationCache::new();
    let cfg = SnowballConfig::default();
    let cold = json(&build_dataset_with_cache(&world.chain, &world.labels, &cfg, &cache));
    assert!(!cache.is_empty(), "a cold run must populate the cache");
    let filled = cache.len();

    // Warm rerun: identical bytes, no new entries.
    let warm = json(&build_dataset_with_cache(&world.chain, &world.labels, &cfg, &cache));
    assert_eq!(warm, cold);
    assert_eq!(cache.len(), filled, "a warm rerun classifies nothing new");
}

#[test]
fn online_detector_shares_the_batch_cache() {
    let world = World::build(&WorldConfig::tiny(31)).expect("world");
    let cache = Arc::new(ClassificationCache::new());
    let cfg = SnowballConfig::default();
    let batch = build_dataset_with_cache(&world.chain, &world.labels, &cfg, &cache);
    let filled = cache.len();

    let mut online = OnlineDetector::with_cache(cfg, Arc::clone(&cache));
    online.poll(&world.chain, &world.labels);
    assert_eq!(online.dataset().contracts, batch.contracts);
    assert_eq!(online.dataset().operators, batch.operators);
    assert_eq!(online.dataset().affiliates, batch.affiliates);
    assert_eq!(online.dataset().ps_txs, batch.ps_txs);
    assert!(cache.len() >= filled, "sharing never drops entries");
}
