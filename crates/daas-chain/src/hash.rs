//! [`DetMap`]: the chain's Fx-hashed account and token tables.
//!
//! The hasher itself ([`eth_types::FxHasher`]) lives in `eth-types`,
//! shared with every other crate's internal maps. Determinism here is a
//! *layout* property only: every serialized artifact sorts map entries
//! (the serde shim sorts `HashMap` keys, and the sharded state maps sort
//! their flattened entry lists), so swapping hashers can never change a
//! released byte.

use std::collections::HashMap;

use eth_types::FxHashMap;

/// An Fx-hashed map that serializes byte-identically to a default
/// `HashMap` field: at serialize time the entries are re-collected into
/// a (reference-valued) default map, whose impl in the serde shim sorts
/// keys — so swapping a `HashMap` field for a `DetMap` never changes the
/// released artifact. Used for the chain's account and token tables,
/// which take several lookups per recorded transaction.
#[derive(Debug, Clone)]
pub struct DetMap<K, V> {
    inner: FxHashMap<K, V>,
}

impl<K, V> Default for DetMap<K, V> {
    fn default() -> Self {
        DetMap { inner: FxHashMap::default() }
    }
}

impl<K: std::hash::Hash + Eq, V> DetMap<K, V> {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// `true` if the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Looks up a key.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        self.inner.get(key)
    }

    /// Mutable lookup.
    #[inline]
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.inner.get_mut(key)
    }

    /// Membership test.
    #[inline]
    pub fn contains_key(&self, key: &K) -> bool {
        self.inner.contains_key(key)
    }

    /// Inserts `value` at `key`, returning the previous value.
    #[inline]
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.inner.insert(key, value)
    }

    /// Iterates keys (unordered).
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.inner.keys()
    }

    /// Iterates values (unordered).
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.inner.values()
    }

    /// Iterates entries (unordered).
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.inner.iter()
    }
}

impl<K, V> serde::Serialize for DetMap<K, V>
where
    K: std::hash::Hash + Eq + serde::Serialize,
    V: serde::Serialize,
{
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        // Delegate to the default-hasher HashMap impl (which sorts keys),
        // so the artifact is identical to a plain HashMap field.
        let flat: HashMap<&K, &V> = self.inner.iter().collect();
        flat.serialize(serializer)
    }
}

impl<'de, K, V> serde::Deserialize<'de> for DetMap<K, V>
where
    K: std::hash::Hash + Eq + serde::Deserialize<'de>,
    V: serde::Deserialize<'de>,
{
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let flat = HashMap::<K, V>::deserialize(deserializer)?;
        let mut inner = FxHashMap::default();
        inner.extend(flat);
        Ok(DetMap { inner })
    }
}
