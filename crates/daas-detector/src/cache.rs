//! Shared transaction-classification cache.
//!
//! [`classify_tx`] is a pure function of the transaction and the
//! classifier settings, yet batch snowball sampling, step-2
//! re-qualification and the online detector all classify the same
//! transactions repeatedly. [`ClassificationCache`] memoises the
//! verdict — including negative verdicts — keyed by transaction id, on
//! a [`ShardedMemo`], so one `Arc`-shared cache can serve the batch
//! snowball and the online detector.
//!
//! A cache is valid for exactly one [`ClassifierConfig`]; callers that
//! sweep classifier settings (the ablation harness) must use a fresh
//! cache per configuration.

use std::fmt;
use std::sync::Arc;

use daas_chain::{Chain, MemoStats, ShardedMemo, TxId};

use crate::classify::{classify_tx, ClassifierConfig, PsObservation};

/// Concurrent memo table for [`classify_tx`] verdicts.
///
/// Verdicts are stored as `Arc<PsObservation>`: the detector and the
/// clusterer fan each positive observation out to several consumers
/// (event log, window stats, family ingest), so a cache hit hands out a
/// reference-count bump instead of cloning the ~200-byte observation
/// per consumer.
pub struct ClassificationCache {
    memo: ShardedMemo<TxId, Option<Arc<PsObservation>>>,
}

impl Default for ClassificationCache {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for ClassificationCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClassificationCache").field("entries", &self.len()).finish()
    }
}

impl ClassificationCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        ClassificationCache { memo: ShardedMemo::new() }
    }

    /// Classifies `txid` through the cache: returns the memoised
    /// verdict when present, otherwise computes, stores and returns it.
    pub fn classify(
        &self,
        chain: &Chain,
        txid: TxId,
        cfg: &ClassifierConfig,
    ) -> Option<Arc<PsObservation>> {
        self.memo.get_or_compute(txid, || classify_tx(chain.tx(txid), cfg).map(Arc::new))
    }

    /// Number of cached verdicts (positive and negative).
    pub fn len(&self) -> usize {
        self.memo.len()
    }

    /// Whether the cache holds no verdicts.
    pub fn is_empty(&self) -> bool {
        self.memo.is_empty()
    }

    /// Drops every cached verdict (e.g. before reusing the allocation
    /// with a different [`ClassifierConfig`]). Resets the hit/miss
    /// counters too.
    pub fn clear(&self) {
        self.memo.clear();
    }

    /// Hit/miss counters and the entry count since construction (or
    /// the last [`Self::clear`]). Always on — the counters are relaxed
    /// atomics bumped under the shard lock, so reading them costs
    /// nothing on the classify path. The observability layer exports
    /// them as `cache.classify.hit` / `cache.classify.miss`.
    pub fn stats(&self) -> MemoStats {
        self.memo.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cache_reports_empty() {
        let cache = ClassificationCache::new();
        assert!(cache.is_empty());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn clear_empties_the_cache() {
        let cache = ClassificationCache::new();
        cache.memo.get_or_compute(3, || None);
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
    }
}
