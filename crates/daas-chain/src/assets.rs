//! Sharded ERC-20 / NFT state maps — the write-hot half of the ledger.
//!
//! PR 2 sharded the *read* side (the account-history index); this module
//! does the same for the asset state that `record_tx`-adjacent execution
//! mutates on almost every transaction: ERC-20 balances and allowances,
//! NFT ownership, and operator approvals. The design mirrors
//! [`ShardedHistories`](crate::ShardedHistories): power-of-two shards
//! keyed by a deterministic address hash, each behind its own `Arc`, so
//! cloning the whole map is N pointer bumps (copy-on-write snapshots for
//! worker pools) and writers on different shards never share a cache
//! line. Shard interiors use the deterministic Fx hash
//! ([`crate::hash`]) — these keys are keccak-derived, so SipHash's
//! flooding resistance buys nothing here.
//!
//! Serialization is **byte-identical** to the pre-shard representation:
//! the legacy fields serialized via `#[serde(with = "entry_list")]` /
//! `entry_set` as a `Vec` of entries sorted by key, and [`ShardedMap`] /
//! [`ShardedSet`] reproduce exactly that — flatten, sort by key,
//! serialize as a sequence. Shard count is memory layout, never data.

use std::hash::Hash;
use std::sync::Arc;

use eth_types::{AddrId, Address, FxHashMap, FxHashSet};
use serde::{Deserialize, Deserializer, Serialize, Serializer};

use crate::shard::{shard_index, shard_index_id, DEFAULT_SHARDS};

/// Deterministic shard placement for an asset-state key. Implementations
/// pick the component with the most entropy *per entry* (the holder for
/// balances, the owner for allowances/approvals) so one hot token cannot
/// serialise all writers onto one shard.
pub trait AssetShardKey {
    /// Shard slot for this key among `mask + 1` (power-of-two) shards.
    fn shard_slot(&self, mask: usize) -> usize;
}

/// `(token, holder)` — ERC-20 balances. Sharded by holder.
impl AssetShardKey for (Address, Address) {
    #[inline]
    fn shard_slot(&self, mask: usize) -> usize {
        shard_index(self.1, mask)
    }
}

/// `(token, owner, spender)` — ERC-20 allowances and NFT operator
/// approvals. Sharded by owner.
impl AssetShardKey for (Address, Address, Address) {
    #[inline]
    fn shard_slot(&self, mask: usize) -> usize {
        shard_index(self.1, mask)
    }
}

/// `(token, id)` — NFT ownership. Few token contracts hold many ids, so
/// the id is folded into the token hash.
impl AssetShardKey for (Address, u64) {
    #[inline]
    fn shard_slot(&self, mask: usize) -> usize {
        (shard_index(self.0, usize::MAX) ^ self.1 as usize) & mask
    }
}

// Interned-id keys (the chain's live asset state since the columnar
// refactor): same placement components as the address forms, but the
// "hash" is the id itself — dense first-seen counters spread evenly
// over power-of-two shards with zero hashing.

/// `(token, holder)` as interned ids. Sharded by holder.
impl AssetShardKey for (AddrId, AddrId) {
    #[inline]
    fn shard_slot(&self, mask: usize) -> usize {
        shard_index_id(self.1, mask)
    }
}

/// `(token, owner, spender)` as interned ids. Sharded by owner.
impl AssetShardKey for (AddrId, AddrId, AddrId) {
    #[inline]
    fn shard_slot(&self, mask: usize) -> usize {
        shard_index_id(self.1, mask)
    }
}

/// `(token, id)` with an interned token. The NFT id is folded in so one
/// large collection cannot serialise all writers onto one shard.
impl AssetShardKey for (AddrId, u64) {
    #[inline]
    fn shard_slot(&self, mask: usize) -> usize {
        (self.0.raw() as usize ^ self.1 as usize) & mask
    }
}

/// A power-of-two-sharded, `Arc`-backed map for ledger asset state.
#[derive(Debug, Clone)]
pub struct ShardedMap<K, V> {
    mask: usize,
    shards: Vec<Arc<FxHashMap<K, V>>>,
}

impl<K: AssetShardKey + Eq + Hash + Clone, V: Clone> Default for ShardedMap<K, V> {
    fn default() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }
}

impl<K: AssetShardKey + Eq + Hash + Clone, V: Clone> ShardedMap<K, V> {
    /// An empty map with `shards` shards. `shards` must be a power of
    /// two (debug-asserted; release builds round down to one).
    pub fn with_shards(shards: usize) -> Self {
        debug_assert!(
            shards.is_power_of_two(),
            "shard count must be a power of two, got {shards}"
        );
        let n = if shards.is_power_of_two() { shards } else { 1 };
        ShardedMap {
            mask: n - 1,
            shards: (0..n).map(|_| Arc::new(FxHashMap::default())).collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// `true` if no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.is_empty())
    }

    /// Looks up a key.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        self.shards[key.shard_slot(self.mask)].get(key)
    }

    /// Inserts `value` at `key`, returning the previous value.
    #[inline]
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let shard = &mut self.shards[key.shard_slot(self.mask)];
        Arc::make_mut(shard).insert(key, value)
    }

    /// Removes `key`, returning its value.
    #[inline]
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let shard = &mut self.shards[key.shard_slot(self.mask)];
        Arc::make_mut(shard).remove(key)
    }

    /// Mutable access to `key`'s value, inserting `default` first if the
    /// key is absent — the sharded `entry().or_insert()`.
    #[inline]
    pub fn get_mut_or_insert(&mut self, key: K, default: V) -> &mut V {
        let shard = &mut self.shards[key.shard_slot(self.mask)];
        Arc::make_mut(shard).entry(key).or_insert(default)
    }

    /// Iterates every entry across all shards, in shard order then
    /// shard-internal (unspecified) order. Callers needing determinism
    /// must sort.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.shards.iter().flat_map(|s| s.iter())
    }

    /// Rebuilds the same map with a different shard count. Data — and
    /// the serialized artifact — are unchanged; only layout moves.
    pub fn resharded(&self, shards: usize) -> Self {
        let mut out = Self::with_shards(shards);
        for (k, v) in self.iter() {
            out.insert(k.clone(), v.clone());
        }
        out
    }
}

impl<K: AssetShardKey + Eq + Hash + Clone, V: Clone + PartialEq> PartialEq for ShardedMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        // Shard count is layout, not data.
        self.len() == other.len()
            && self.iter().all(|(k, v)| other.get(k) == Some(v))
    }
}

impl<K, V> Serialize for ShardedMap<K, V>
where
    K: AssetShardKey + Eq + Hash + Clone + Ord + Serialize,
    V: Clone + Serialize,
{
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        // Same bytes as the legacy `#[serde(with = "entry_list")]` flat
        // map: a Vec of (key, value) entries sorted by key.
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        entries.serialize(serializer)
    }
}

impl<'de, K, V> Deserialize<'de> for ShardedMap<K, V>
where
    K: AssetShardKey + Eq + Hash + Clone + Deserialize<'de>,
    V: Clone + Deserialize<'de>,
{
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let mut out = Self::default();
        for (k, v) in Vec::<(K, V)>::deserialize(deserializer)? {
            out.insert(k, v);
        }
        Ok(out)
    }
}

/// A power-of-two-sharded, `Arc`-backed set for ledger asset state.
#[derive(Debug, Clone)]
pub struct ShardedSet<T> {
    mask: usize,
    shards: Vec<Arc<FxHashSet<T>>>,
}

impl<T: AssetShardKey + Eq + Hash + Clone> Default for ShardedSet<T> {
    fn default() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }
}

impl<T: AssetShardKey + Eq + Hash + Clone> ShardedSet<T> {
    /// An empty set with `shards` shards (power of two; debug-asserted).
    pub fn with_shards(shards: usize) -> Self {
        debug_assert!(
            shards.is_power_of_two(),
            "shard count must be a power of two, got {shards}"
        );
        let n = if shards.is_power_of_two() { shards } else { 1 };
        ShardedSet {
            mask: n - 1,
            shards: (0..n).map(|_| Arc::new(FxHashSet::default())).collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of members across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// `true` if no shard holds a member.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.is_empty())
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, value: &T) -> bool {
        self.shards[value.shard_slot(self.mask)].contains(value)
    }

    /// Inserts `value`; `true` if it was not already present.
    #[inline]
    pub fn insert(&mut self, value: T) -> bool {
        let shard = &mut self.shards[value.shard_slot(self.mask)];
        Arc::make_mut(shard).insert(value)
    }

    /// Removes `value`; `true` if it was present.
    #[inline]
    pub fn remove(&mut self, value: &T) -> bool {
        let shard = &mut self.shards[value.shard_slot(self.mask)];
        Arc::make_mut(shard).remove(value)
    }

    /// Iterates every member across all shards (unsorted).
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.shards.iter().flat_map(|s| s.iter())
    }

    /// Rebuilds the same set with a different shard count.
    pub fn resharded(&self, shards: usize) -> Self {
        let mut out = Self::with_shards(shards);
        for v in self.iter() {
            out.insert(v.clone());
        }
        out
    }
}

impl<T: AssetShardKey + Eq + Hash + Clone> PartialEq for ShardedSet<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().all(|v| other.contains(v))
    }
}

impl<T> Serialize for ShardedSet<T>
where
    T: AssetShardKey + Eq + Hash + Clone + Ord + Serialize,
{
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        // Same bytes as the legacy `#[serde(with = "entry_set")]` flat
        // set: a sorted Vec of members.
        let mut entries: Vec<&T> = self.iter().collect();
        entries.sort();
        entries.serialize(serializer)
    }
}

impl<'de, T> Deserialize<'de> for ShardedSet<T>
where
    T: AssetShardKey + Eq + Hash + Clone + Deserialize<'de>,
{
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let mut out = Self::default();
        for v in Vec::<T>::deserialize(deserializer)? {
            out.insert(v);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(n: u8) -> Address {
        Address([n; 20])
    }

    #[test]
    fn map_insert_get_remove() {
        let mut m: ShardedMap<(Address, Address), u64> = ShardedMap::default();
        assert!(m.is_empty());
        m.insert((addr(1), addr(2)), 10);
        *m.get_mut_or_insert((addr(1), addr(3)), 0) += 5;
        assert_eq!(m.get(&(addr(1), addr(2))), Some(&10));
        assert_eq!(m.get(&(addr(1), addr(3))), Some(&5));
        assert_eq!(m.len(), 2);
        assert_eq!(m.remove(&(addr(1), addr(2))), Some(10));
        assert_eq!(m.get(&(addr(1), addr(2))), None);
    }

    #[test]
    fn map_reshard_preserves_data_and_eq() {
        let mut m: ShardedMap<(Address, u64), Address> = ShardedMap::default();
        for n in 0..64u8 {
            m.insert((addr(n), n as u64), addr(n.wrapping_add(1)));
        }
        for shards in [1, 4, 16, 64] {
            let r = m.resharded(shards);
            assert_eq!(r.shard_count(), shards);
            assert_eq!(r, m);
        }
    }

    #[test]
    fn map_serializes_sorted_regardless_of_shards() {
        let mut a: ShardedMap<(Address, Address), u64> = ShardedMap::with_shards(1);
        let mut b: ShardedMap<(Address, Address), u64> = ShardedMap::with_shards(16);
        for n in (0..32u8).rev() {
            a.insert((addr(n), addr(n)), n as u64);
            b.insert((addr(n), addr(n)), n as u64);
        }
        let ja = serde_json::to_string(&a).unwrap();
        let jb = serde_json::to_string(&b).unwrap();
        assert_eq!(ja, jb);
        let back: ShardedMap<(Address, Address), u64> = serde_json::from_str(&ja).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn set_insert_contains_remove() {
        let mut s: ShardedSet<(Address, Address, Address)> = ShardedSet::default();
        let k = (addr(1), addr(2), addr(3));
        assert!(s.insert(k));
        assert!(!s.insert(k));
        assert!(s.contains(&k));
        assert!(s.remove(&k));
        assert!(s.is_empty());
    }

    #[test]
    fn set_serializes_sorted_regardless_of_shards() {
        let mut a: ShardedSet<(Address, Address, Address)> = ShardedSet::with_shards(1);
        let mut b: ShardedSet<(Address, Address, Address)> = ShardedSet::with_shards(16);
        for n in (0..32u8).rev() {
            a.insert((addr(n), addr(n), addr(n)));
            b.insert((addr(n), addr(n), addr(n)));
        }
        assert_eq!(serde_json::to_string(&a).unwrap(), serde_json::to_string(&b).unwrap());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    #[cfg(debug_assertions)]
    fn non_power_of_two_asserts() {
        let _: ShardedMap<(Address, Address), u64> = ShardedMap::with_shards(12);
    }
}
