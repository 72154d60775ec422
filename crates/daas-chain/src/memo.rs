//! A sharded concurrent memo table for pure-function results.
//!
//! This is the pattern the detector's `ClassificationCache` established
//! in PR 1, lifted into the chain crate so every downstream consumer
//! (classification, per-account feature extraction, family forensics)
//! shares one implementation and one shard-count constant
//! ([`DEFAULT_SHARDS`](crate::shard::DEFAULT_SHARDS)) with the chain
//! store itself.
//!
//! Correctness argument (same as PR 1): the memo only ever stores the
//! result of a *pure* function of its key (plus immutable context), so
//! the table's contents are independent of which worker computed an
//! entry first or in what order — parallel fills can never change what
//! any later read observes.
//!
//! Every shard keeps always-on hit/miss counters (relaxed atomics,
//! bumped while the shard lock is already held, so they are noise next
//! to the lock acquisition). [`ShardedMemo::stats`] aggregates them
//! with per-shard occupancy — the raw numbers behind the
//! `cache.*.hit`/`cache.*.miss` observability counters and the
//! `stats()` accessors of the classification and feature caches.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};

use eth_types::Address;
use parking_lot::RwLock;

use crate::shard::{shard_index, DEFAULT_SHARDS};
use crate::tx::TxId;

/// Keys that know which shard they live in. The mapping must be
/// deterministic across runs (no `RandomState`).
pub trait ShardKey {
    /// Shard index for this key among `mask + 1` (power-of-two) shards.
    fn shard(&self, mask: usize) -> usize;
}

impl ShardKey for TxId {
    #[inline]
    fn shard(&self, mask: usize) -> usize {
        *self as usize & mask
    }
}

impl ShardKey for Address {
    #[inline]
    fn shard(&self, mask: usize) -> usize {
        shard_index(*self, mask)
    }
}

impl ShardKey for eth_types::AddrId {
    #[inline]
    fn shard(&self, mask: usize) -> usize {
        crate::shard::shard_index_id(*self, mask)
    }
}

/// Aggregated memo counters — see [`ShardedMemo::stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups served from the table (`get_or_compute` and `get`).
    pub hits: u64,
    /// Lookups that found nothing (a `get_or_compute` miss computes and
    /// stores; a `get` miss just returns `None`).
    pub misses: u64,
    /// Memoised entries.
    pub entries: usize,
    /// Entries per shard, in shard order (the occupancy-balance view).
    pub per_shard: Vec<usize>,
}

impl MemoStats {
    /// Hits as a fraction of all lookups (0.0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Shard<K, V> {
    map: RwLock<HashMap<K, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K, V> Default for Shard<K, V> {
    fn default() -> Self {
        Shard { map: RwLock::new(HashMap::new()), hits: AtomicU64::new(0), misses: AtomicU64::new(0) }
    }
}

/// A sharded `RwLock<HashMap>` memo. `Sync` whenever `K`/`V` are
/// `Send + Sync`; readers on different shards never contend.
pub struct ShardedMemo<K, V> {
    mask: usize,
    shards: Vec<Shard<K, V>>,
}

impl<K: ShardKey + Hash + Eq, V: Clone> Default for ShardedMemo<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> std::fmt::Debug for ShardedMemo<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedMemo").field("shards", &self.shards.len()).finish()
    }
}

impl<K: ShardKey + Hash + Eq, V: Clone> ShardedMemo<K, V> {
    /// An empty memo with [`DEFAULT_SHARDS`] shards.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// An empty memo with `shards` shards. Must be a power of two
    /// (debug-asserted; release builds round down to one).
    pub fn with_shards(shards: usize) -> Self {
        debug_assert!(
            shards.is_power_of_two(),
            "shard count must be a power of two, got {shards}"
        );
        let n = if shards.is_power_of_two() { shards } else { 1 };
        ShardedMemo {
            mask: n - 1,
            shards: (0..n).map(|_| Shard::default()).collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    #[inline]
    fn shard(&self, key: &K) -> &Shard<K, V> {
        &self.shards[key.shard(self.mask)]
    }

    /// Returns the memoised value for `key`, computing and storing it
    /// via `compute` on a miss. `compute` must be a pure function of
    /// `key` (and immutable captured context).
    pub fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> V {
        let shard = self.shard(&key);
        if let Some(v) = shard.map.read().get(&key) {
            shard.hits.fetch_add(1, Ordering::Relaxed);
            return v.clone();
        }
        shard.misses.fetch_add(1, Ordering::Relaxed);
        let v = compute();
        // A racing worker may have filled the slot between our read and
        // write; both computed the same pure function, so either value
        // is correct — keep the first.
        shard.map.write().entry(key).or_insert_with(|| v.clone());
        v
    }

    /// Returns the memoised value without computing on a miss.
    pub fn get(&self, key: &K) -> Option<V> {
        let shard = self.shard(key);
        let value = shard.map.read().get(key).cloned();
        match value {
            Some(_) => shard.hits.fetch_add(1, Ordering::Relaxed),
            None => shard.misses.fetch_add(1, Ordering::Relaxed),
        };
        value
    }

    /// Total number of memoised entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.map.read().len()).sum()
    }

    /// Whether the memo is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregated hit/miss counters and per-shard occupancy.
    pub fn stats(&self) -> MemoStats {
        let mut stats = MemoStats::default();
        for shard in &self.shards {
            stats.hits += shard.hits.load(Ordering::Relaxed);
            stats.misses += shard.misses.load(Ordering::Relaxed);
            let len = shard.map.read().len();
            stats.entries += len;
            stats.per_shard.push(len);
        }
        stats
    }

    /// Drops every entry and resets the counters (keeps the shard
    /// layout).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.map.write().clear();
            shard.hits.store(0, Ordering::Relaxed);
            shard.misses.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memoises_and_counts() {
        let memo: ShardedMemo<TxId, u64> = ShardedMemo::new();
        let mut calls = 0u32;
        let v = memo.get_or_compute(7, || {
            calls += 1;
            70
        });
        assert_eq!(v, 70);
        let v = memo.get_or_compute(7, || {
            calls += 1;
            99
        });
        assert_eq!(v, 70, "second call must hit the memo");
        assert_eq!(calls, 1);
        assert_eq!(memo.len(), 1);
        assert_eq!(memo.get(&7), Some(70));
        memo.clear();
        assert!(memo.is_empty());
    }

    #[test]
    fn configurable_shard_count() {
        for shards in [1, 2, 8, 64] {
            let memo: ShardedMemo<TxId, ()> = ShardedMemo::with_shards(shards);
            assert_eq!(memo.shard_count(), shards);
            for id in 0..100 {
                memo.get_or_compute(id, || ());
            }
            assert_eq!(memo.len(), 100);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    #[cfg(debug_assertions)]
    fn non_power_of_two_asserts() {
        let _: ShardedMemo<TxId, ()> = ShardedMemo::with_shards(6);
    }

    #[test]
    fn address_keys_shard_deterministically() {
        let memo: ShardedMemo<Address, u8> = ShardedMemo::with_shards(4);
        let a = Address([9; 20]);
        memo.get_or_compute(a, || 1);
        assert_eq!(memo.get(&a), Some(1));
    }

    #[test]
    fn stats_track_hits_misses_and_occupancy() {
        let memo: ShardedMemo<TxId, u64> = ShardedMemo::with_shards(4);
        assert_eq!(memo.stats(), MemoStats { per_shard: vec![0; 4], ..Default::default() });

        memo.get_or_compute(0, || 1); // miss
        memo.get_or_compute(0, || 1); // hit
        memo.get_or_compute(1, || 2); // miss (shard 1)
        assert_eq!(memo.get(&5), None); // miss
        let stats = memo.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.per_shard, vec![1, 1, 0, 0]);
        assert!((stats.hit_rate() - 0.25).abs() < 1e-12);

        memo.clear();
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
        assert_eq!(stats.hit_rate(), 0.0);
    }
}
