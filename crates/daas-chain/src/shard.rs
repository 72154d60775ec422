//! Sharded account-history index and the cheap read-only chain view.
//!
//! The snowball sampler, the family clusterer, and the measurement
//! analytics are all read-mostly walks over two structures: the
//! columnar tx arena ([`TxStore`], indexed by [`TxId`]) and the
//! per-account history index. A single flat map serves every worker
//! from one allocation, so multi-socket hosts bottleneck on shared
//! cache lines. [`ShardedHistories`] splits the index into N
//! power-of-two shards; each shard lives behind its own `Arc`, so a
//! clone of the whole index is N pointer bumps and workers can hold an
//! owned, `Sync` view without borrowing the chain.
//!
//! Since the columnar refactor the index is keyed by interned
//! [`AddrId`]s: probes hash 4 bytes instead of 20 and shard placement
//! is the id's low bits — no address hashing anywhere on the
//! `record_tx` hot path. Ids never reach the serialized artifact: the
//! chain's serializer resolves the index back to the address-keyed
//! map the pre-columnar format used, byte-identically (and rebuilds
//! the index from the tx arena on deserialize — the history is fully
//! derivable). The shard count is a memory layout, not data.

use std::sync::Arc;

use eth_types::{AddrId, Address, FxHashMap};

use crate::store::{TxStore, TxView};
use crate::tx::TxId;

/// Default shard count for the account-history index *and* the sharded
/// memo caches built on [`shard_index`] (e.g. the detector's
/// classification cache). One constant so the chain store and the caches
/// stay aligned; must be a power of two.
pub const DEFAULT_SHARDS: usize = 16;

/// Deterministic shard index for `address` among `2^k = mask + 1` shards.
///
/// Uses the low 8 bytes of the address as a little-endian integer — the
/// generator derives addresses from keccak, so the low bytes are already
/// uniform. Crucially this is *not* `std::collections::hash_map`'s
/// `RandomState`: shard placement must be reproducible across runs so
/// that per-shard iteration order (and therefore any worker chunking
/// keyed on it) is deterministic.
#[inline]
pub fn shard_index(address: Address, mask: usize) -> usize {
    let b = address.as_bytes();
    let mut lo = [0u8; 8];
    lo.copy_from_slice(&b[12..20]);
    (u64::from_le_bytes(lo) as usize) & mask
}

/// Deterministic shard index for an interned id: its low bits. Ids are
/// dense first-seen counters, so consecutive accounts spread evenly.
#[inline]
pub fn shard_index_id(id: AddrId, mask: usize) -> usize {
    id.raw() as usize & mask
}

/// The account-history index, split into power-of-two `Arc`-backed
/// shards and keyed by interned [`AddrId`]. Cloning is cheap (one `Arc`
/// bump per shard); mutation goes through copy-on-write
/// (`Arc::make_mut`), so a clone taken by a worker pool is a stable
/// snapshot.
#[derive(Debug, Clone)]
pub struct ShardedHistories {
    mask: usize,
    // Shard interiors use the deterministic Fx hash (`crate::hash`):
    // `push` runs for every address a transaction touches; a 4-byte id
    // hashes in one multiply.
    shards: Vec<Arc<FxHashMap<AddrId, Vec<TxId>>>>,
}

impl Default for ShardedHistories {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedHistories {
    /// An empty index with [`DEFAULT_SHARDS`] shards.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// An empty index with `shards` shards. `shards` must be a power of
    /// two (debug-asserted; release builds round down to one).
    pub fn with_shards(shards: usize) -> Self {
        debug_assert!(
            shards.is_power_of_two(),
            "shard count must be a power of two, got {shards}"
        );
        let n = if shards.is_power_of_two() { shards } else { 1 };
        ShardedHistories {
            mask: n - 1,
            shards: (0..n).map(|_| Arc::new(FxHashMap::default())).collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Transaction ids touching the interned account, in chain order.
    #[inline]
    pub fn txs_of(&self, id: AddrId) -> &[TxId] {
        self.shards[shard_index_id(id, self.mask)]
            .get(&id)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Appends `tx` to the account's history (copy-on-write if the
    /// shard is shared with an outstanding clone).
    pub fn push(&mut self, id: AddrId, tx: TxId) {
        let shard = &mut self.shards[shard_index_id(id, self.mask)];
        Arc::make_mut(shard).entry(id).or_default().push(tx);
    }

    /// Total number of accounts with at least one history entry.
    pub fn accounts(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// Accounts per shard, in shard order — the occupancy-balance view
    /// the observability layer exports as `shard.histories.len{shard}`.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.len()).collect()
    }

    /// Iterates every `(id, history)` entry across all shards, in shard
    /// order then shard-internal (unspecified) order. Callers that need
    /// determinism must sort.
    pub fn iter(&self) -> impl Iterator<Item = (&AddrId, &Vec<TxId>)> {
        self.shards.iter().flat_map(|s| s.iter())
    }

    /// Rebuilds the same index with a different shard count. Data is
    /// unchanged — only the memory layout moves.
    pub fn resharded(&self, shards: usize) -> Self {
        let mut out = Self::with_shards(shards);
        for (&id, ids) in self.iter() {
            let shard = &mut out.shards[shard_index_id(id, out.mask)];
            Arc::make_mut(shard).insert(id, ids.clone());
        }
        out
    }

    /// Flattens the shards into one map — the equality representation.
    fn flat(&self) -> FxHashMap<AddrId, &Vec<TxId>> {
        self.iter().map(|(&id, v)| (id, v)).collect()
    }
}

impl PartialEq for ShardedHistories {
    fn eq(&self, other: &Self) -> bool {
        // Shard count is layout, not data.
        self.flat() == other.flat()
    }
}

/// A copyable, `Sync` read-only view over the chain's two hot read
/// paths: the columnar tx arena and the sharded history index. Workers
/// take a `ChainReader` by value instead of borrowing the whole
/// [`Chain`](crate::Chain), so the pool never contends on (or extends)
/// the chain borrow.
#[derive(Debug, Clone, Copy)]
pub struct ChainReader<'a> {
    store: &'a TxStore,
    histories: &'a ShardedHistories,
}

impl<'a> ChainReader<'a> {
    pub(crate) fn new(store: &'a TxStore, histories: &'a ShardedHistories) -> Self {
        ChainReader { store, histories }
    }

    /// Looks up a transaction by id.
    #[inline]
    pub fn tx(&self, id: TxId) -> TxView<'a> {
        self.store.view(id)
    }

    /// The columnar tx arena (all transactions, in chain order).
    #[inline]
    pub fn transactions(&self) -> &'a TxStore {
        self.store
    }

    /// Transaction ids touching `address`, in chain order.
    pub fn txs_of(&self, address: Address) -> &'a [TxId] {
        match self.store.addr_id(address) {
            Some(id) => self.histories.txs_of(id),
            None => &[],
        }
    }

    /// Transaction ids touching the interned account, in chain order.
    #[inline]
    pub fn txs_of_id(&self, id: AddrId) -> &'a [TxId] {
        self.histories.txs_of(id)
    }

    /// The underlying sharded history index.
    pub fn histories(&self) -> &'a ShardedHistories {
        self.histories
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u32) -> AddrId {
        let mut interner = eth_types::AddrInterner::new();
        for i in 0..=n {
            interner.intern(Address([i as u8; 20]));
        }
        interner.lookup(Address([n as u8; 20])).unwrap()
    }

    #[test]
    fn push_and_lookup() {
        let mut h = ShardedHistories::new();
        h.push(id(1), 10);
        h.push(id(1), 11);
        h.push(id(2), 12);
        assert_eq!(h.txs_of(id(1)), &[10, 11]);
        assert_eq!(h.txs_of(id(2)), &[12]);
        assert_eq!(h.txs_of(id(3)), &[] as &[TxId]);
        assert_eq!(h.accounts(), 2);
    }

    #[test]
    fn clone_is_snapshot() {
        let mut h = ShardedHistories::new();
        h.push(id(1), 10);
        let snap = h.clone();
        h.push(id(1), 11);
        assert_eq!(snap.txs_of(id(1)), &[10]);
        assert_eq!(h.txs_of(id(1)), &[10, 11]);
    }

    #[test]
    fn reshard_preserves_data_and_eq() {
        let mut h = ShardedHistories::new();
        for n in 0..64u32 {
            h.push(id(n), n);
            h.push(id(n), 100 + n);
        }
        for shards in [1, 4, 16, 64] {
            let r = h.resharded(shards);
            assert_eq!(r.shard_count(), shards);
            assert_eq!(r, h);
            for n in 0..64u32 {
                assert_eq!(r.txs_of(id(n)), h.txs_of(id(n)));
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    #[cfg(debug_assertions)]
    fn non_power_of_two_asserts() {
        let _ = ShardedHistories::with_shards(12);
    }

    #[test]
    fn shard_index_in_range() {
        for n in 0..255u8 {
            let addr = Address([n; 20]);
            assert!(shard_index(addr, DEFAULT_SHARDS - 1) < DEFAULT_SHARDS);
            assert_eq!(shard_index(addr, 0), 0);
        }
        for n in 0..255u32 {
            assert!(shard_index_id(id(n), DEFAULT_SHARDS - 1) < DEFAULT_SHARDS);
        }
    }
}
