//! A sharded concurrent memo table for pure-function results.
//!
//! It backs the detector's per-account `FeatureCache`, which the §6
//! report workers fill concurrently: the table is split over a fixed 16
//! locks for them, a private constant rather than a setting.
//! Transaction verdicts do not go through a memo: the detector's
//! `ClassificationCache` is a dense table filled in chain order.
//!
//! Correctness argument: the memo only ever stores the result of a
//! *pure* function of its key (plus immutable context), so the table's
//! contents are independent of which worker computed an entry first or
//! in what order — parallel fills can never change what any later read
//! observes.
//!
//! Every shard keeps always-on hit/miss counters (relaxed atomics,
//! bumped while the shard lock is already held, so they are noise next
//! to the lock acquisition). [`ShardedMemo::stats`] aggregates them
//! with the entry count — the raw numbers behind the
//! `cache.features.hit`/`cache.features.miss` observability counters.
//! [`MemoStats`] is also the shape the classification table reports its
//! own counters in.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};

use eth_types::AddrId;
use parking_lot::RwLock;

/// Lock count of every memo (a power of two).
const SHARDS: usize = 16;

/// Keys that know which shard they live in. The mapping must be
/// deterministic across runs (no `RandomState`).
pub trait ShardKey {
    /// Shard index for this key among `mask + 1` (power-of-two) shards.
    fn shard(&self, mask: usize) -> usize;
}

/// Interned ids are dense first-seen counters: the low bits spread
/// evenly.
impl ShardKey for AddrId {
    #[inline]
    fn shard(&self, mask: usize) -> usize {
        self.raw() as usize & mask
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
    shards: Vec<Shard<K, V>>,
}

impl<K: ShardKey + Hash + Eq, V: Clone> Default for ShardedMemo<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> std::fmt::Debug for ShardedMemo<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedMemo").field("shards", &SHARDS).finish()
    }
}

impl<K: ShardKey + Hash + Eq, V: Clone> ShardedMemo<K, V> {
    /// An empty memo.
    pub fn new() -> Self {
        ShardedMemo { shards: (0..SHARDS).map(|_| Shard::default()).collect() }
    }

    #[inline]
    fn shard(&self, key: &K) -> &Shard<K, V> {
        &self.shards[key.shard(SHARDS - 1)]
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

    /// Aggregated hit/miss counters and the entry count.
    pub fn stats(&self) -> MemoStats {
        let mut stats = MemoStats::default();
        for shard in &self.shards {
            stats.hits += shard.hits.load(Ordering::Relaxed);
            stats.misses += shard.misses.load(Ordering::Relaxed);
            stats.entries += shard.map.read().len();
        }
        stats
    }

    /// Drops every entry and resets the counters.
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
    use eth_types::{AddrInterner, Address};

    /// The first `n` ids of a fresh interner.
    fn ids(n: u8) -> Vec<AddrId> {
        let mut interner = AddrInterner::new();
        (0..n).map(|i| interner.intern(Address::from_key_seed(&[i]))).collect()
    }

    #[test]
    fn memoises_and_counts() {
        let id = ids(8)[7];
        let memo: ShardedMemo<AddrId, u64> = ShardedMemo::new();
        let mut calls = 0u32;
        let v = memo.get_or_compute(id, || {
            calls += 1;
            70
        });
        assert_eq!(v, 70);
        let v = memo.get_or_compute(id, || {
            calls += 1;
            99
        });
        assert_eq!(v, 70, "second call must hit the memo");
        assert_eq!(calls, 1);
        assert_eq!(memo.len(), 1);
        assert_eq!(memo.get(&id), Some(70));
        memo.clear();
        assert!(memo.is_empty());
    }

    #[test]
    fn stats_track_hits_misses_and_occupancy() {
        let ids = ids(6);
        let memo: ShardedMemo<AddrId, u64> = ShardedMemo::new();
        assert_eq!(memo.stats(), MemoStats::default());

        memo.get_or_compute(ids[0], || 1); // miss
        memo.get_or_compute(ids[0], || 1); // hit
        memo.get_or_compute(ids[1], || 2); // miss (shard 1)
        assert_eq!(memo.get(&ids[5]), None); // miss
        let stats = memo.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.entries, 2);
        assert!((stats.hit_rate() - 0.25).abs() < 1e-12);

        memo.clear();
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
        assert_eq!(stats.hit_rate(), 0.0);
    }
}
