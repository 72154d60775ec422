//! The classification table's contracts. `misses` counts transactions
//! classified into the table (always equal to `entries`), `hits` counts
//! verdicts read; `cache.classify.hit` / `cache.classify.miss` in the
//! obs registry are per-run deltas of exactly these. The table grows
//! only in chain order and only as far as a reader asks: a batch build
//! fills it to the end of the chain once, a warm rerun classifies
//! nothing, and an online poll never classifies past the transactions
//! delivered to it. Whatever prefix a shared table holds, the dataset
//! comes out byte-identical.

use std::sync::Arc;

use daas_chain::TxId;
use daas_detector::{
    build_dataset, build_dataset_with_cache, ClassificationCache, Dataset, OnlineDetector,
    SnowballConfig,
};
use daas_world::{World, WorldConfig};

fn json(ds: &Dataset) -> String {
    serde_json::to_string(ds).expect("dataset serialises")
}

#[test]
fn a_build_classifies_the_chain_once_and_a_warm_rerun_nothing() {
    let world = World::build(&WorldConfig::micro(91)).expect("world builds");
    let total = world.chain.transactions().len();
    let cache = ClassificationCache::new();
    let cfg = SnowballConfig::default();

    let cold = build_dataset_with_cache(&world.chain, &world.labels, &cfg, &cache);
    let after_cold = cache.stats();
    assert_eq!(after_cold.entries, total, "a build fills the table to the end of the chain");
    assert_eq!(after_cold.misses, total as u64, "misses count transactions classified");
    assert!(after_cold.hits > 0, "the traversal reads verdicts");

    let warm = build_dataset_with_cache(&world.chain, &world.labels, &cfg, &cache);
    let after_warm = cache.stats();
    assert_eq!(json(&warm), json(&cold), "a warm rerun reproduces the dataset bytes");
    assert_eq!(after_warm.misses, after_cold.misses, "a warm rerun classified something");
    assert_eq!(after_warm.entries, after_cold.entries, "a warm rerun grew the table");
    assert_eq!(
        after_warm.hits - after_cold.hits,
        after_cold.hits,
        "the same traversal reads the same verdicts"
    );
}

#[test]
fn hits_count_verdicts_read() {
    let world = World::build(&WorldConfig::micro(92)).expect("world builds");
    let total = world.chain.transactions().len() as TxId;
    let cfg = SnowballConfig::default();
    let cache = ClassificationCache::new();

    // The first lookup classifies the prefix up to it; the rest only read.
    let mid = total / 2;
    cache.classify(&world.chain, mid, &cfg.classifier);
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses), (1, mid as u64 + 1));
    for txid in 0..=mid {
        cache.classify(&world.chain, txid, &cfg.classifier);
    }
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses), (mid as u64 + 2, mid as u64 + 1));
    assert_eq!(stats.entries as u64, stats.misses);
}

#[test]
fn poll_until_never_classifies_past_its_limit() {
    let world = World::build(&WorldConfig::tiny(33)).expect("world");
    let total = world.chain.transactions().len() as TxId;
    let cache = Arc::new(ClassificationCache::new());
    let mut online = OnlineDetector::with_cache(SnowballConfig::default(), Arc::clone(&cache));
    let mut at = 0;
    for step in [1u32, 7, 113, 64, 999, 3, 4096] {
        at = (at + step).min(total);
        online.poll_until(&world.chain, &world.labels, at);
        assert_eq!(
            cache.len(),
            at as usize,
            "a poll up to {at} classified up to {} (no lookahead past delivered blocks)",
            cache.len()
        );
        // An empty poll classifies nothing either.
        online.poll_until(&world.chain, &world.labels, at);
        assert_eq!(cache.len(), at as usize);
    }
    online.poll(&world.chain, &world.labels);
    assert_eq!(cache.len(), total as usize);
}

#[test]
fn a_table_filled_partway_online_gives_the_fresh_dataset() {
    let world = World::build(&WorldConfig::tiny(34)).expect("world");
    let cfg = SnowballConfig::default();
    let fresh = json(&build_dataset(&world.chain, &world.labels, &cfg));

    let total = world.chain.transactions().len() as TxId;
    for limit in [0, 1, total / 3, total - 1] {
        let cache = Arc::new(ClassificationCache::new());
        let mut online = OnlineDetector::with_cache(cfg.clone(), Arc::clone(&cache));
        online.poll_until(&world.chain, &world.labels, limit);
        assert_eq!(cache.len(), limit as usize);
        let handed_over = build_dataset_with_cache(&world.chain, &world.labels, &cfg, &cache);
        assert_eq!(json(&handed_over), fresh, "table filled to {limit} changed the dataset");
        assert_eq!(cache.len(), total as usize);
    }
}

#[test]
fn online_detector_shares_the_batch_table() {
    let world = World::build(&WorldConfig::tiny(31)).expect("world");
    let cache = Arc::new(ClassificationCache::new());
    let cfg = SnowballConfig::default();
    let batch = build_dataset_with_cache(&world.chain, &world.labels, &cfg, &cache);
    let filled = cache.stats();

    let mut online = OnlineDetector::with_cache(cfg, Arc::clone(&cache));
    online.poll(&world.chain, &world.labels);
    assert_eq!(online.dataset().contracts, batch.contracts);
    assert_eq!(online.dataset().operators, batch.operators);
    assert_eq!(online.dataset().affiliates, batch.affiliates);
    assert_eq!(online.dataset().ps_txs, batch.ps_txs);
    let after = cache.stats();
    assert_eq!(after.misses, filled.misses, "the replay re-classified transactions");
    assert!(after.hits > filled.hits, "the replay read no verdicts");
}
