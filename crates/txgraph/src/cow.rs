//! A key-ordered copy-on-write map for state shared with readers.
//!
//! The streaming pipeline publishes an immutable snapshot after every
//! block window while the single writer keeps growing the same state.
//! The measured incident set is the one large map both sides hold, and
//! it needs two things a plain map cannot give:
//!
//! * **O(chunks) snapshots.** [`CowMap`] keeps its entries in sorted
//!   chunks of at most `CHUNK` entries, each behind an `Arc`; a clone
//!   copies the chunk *pointers* only (~340 for the paper world's
//!   87k incidents).
//! * **O(delta) divergence.** After a clone, a write copies exactly the
//!   chunk it lands in; every other chunk stays physically shared with
//!   the snapshot. Keys here are transaction ids and arrive nearly in
//!   order, so a window of appends copies one partial tail chunk and
//!   then fills fresh chunks nobody else holds — a retroactive key (a
//!   late-admitted contract's old transactions) copies the one chunk it
//!   falls in. (A hash-sharded map would spread every window across all
//!   of its shards, and so copy the whole map per window while the
//!   previous epoch is still published.)
//!
//! Iteration is in key order, so a consumer that needs the canonical
//! (transaction-id) order reads it straight off the map without a sort.
//! Lookups are two binary searches: fine for the incident set, and the
//! reason state that is never shared with a reader (the clusterer's
//! `AddrId`-keyed indices) stays on plain [`eth_types::FxHashMap`]s.

use std::collections::HashSet;
use std::sync::Arc;

/// Most entries one chunk holds: the unit a post-snapshot write copies.
/// Full tail chunks stay full (appends open a new chunk); an insert
/// into a full chunk mid-map splits it in half.
const CHUNK: usize = 256;

/// An ordered map of `Arc`-shared sorted chunks. See the module docs
/// for the cost model. Invariants: no chunk is empty, every chunk is
/// sorted by key, and the chunks' key ranges are disjoint and ascending.
pub struct CowMap<K, V> {
    chunks: Vec<Arc<Vec<(K, V)>>>,
    len: usize,
}

impl<K, V> Clone for CowMap<K, V> {
    fn clone(&self) -> Self {
        CowMap { chunks: self.chunks.clone(), len: self.len }
    }
}

impl<K: std::fmt::Debug, V: std::fmt::Debug> std::fmt::Debug for CowMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K, V> Default for CowMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> CowMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        CowMap { chunks: Vec::new(), len: 0 }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates all entries in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.chunks.iter().flat_map(|c| c.iter().map(|(k, v)| (k, v)))
    }

    /// Iterates all values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.chunks.iter().flat_map(|c| c.iter().map(|(_, v)| v))
    }

    /// Number of chunks (structural-sharing introspection for tests).
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// How many of this map's chunks are physically shared with
    /// `other` (structural-sharing introspection for tests).
    pub fn shared_chunks_with(&self, other: &Self) -> usize {
        let theirs: HashSet<*const Vec<(K, V)>> = other.chunks.iter().map(Arc::as_ptr).collect();
        self.chunks.iter().filter(|c| theirs.contains(&Arc::as_ptr(c))).count()
    }
}

impl<K: Ord + Clone, V: Clone> CowMap<K, V> {
    /// The chunk whose key range covers `key`: the first chunk whose
    /// last key is not below it, or the last chunk for a key past the
    /// end. `None` only for an empty map.
    #[inline]
    fn chunk_for(&self, key: &K) -> Option<usize> {
        let i = self.chunks.partition_point(|c| c.last().expect("chunks are non-empty").0 < *key);
        (!self.chunks.is_empty()).then(|| i.min(self.chunks.len() - 1))
    }

    /// Looks up a key.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        let chunk = &self.chunks[self.chunk_for(key)?];
        let i = chunk.binary_search_by(|(k, _)| k.cmp(key)).ok()?;
        Some(&chunk[i].1)
    }

    /// Membership test.
    #[inline]
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Inserts `value` at `key`, returning the previous value. Copies
    /// the one chunk the key lands in if a clone still shares it.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let Some(ci) = self.chunk_for(&key) else {
            self.chunks.push(Arc::new(Self::fresh_chunk(key, value)));
            self.len = 1;
            return None;
        };
        let at = match self.chunks[ci].binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => return Some(std::mem::replace(&mut self.chunk_mut(ci)[i].1, value)),
            Err(i) => i,
        };
        self.len += 1;
        if at == CHUNK {
            // Past the end of a full tail chunk: open a new one rather
            // than copy (or split) a chunk a snapshot may still hold.
            self.chunks.push(Arc::new(Self::fresh_chunk(key, value)));
            return None;
        }
        let chunk = self.chunk_mut(ci);
        chunk.insert(at, (key, value));
        if chunk.len() > CHUNK {
            let upper = chunk.split_off(chunk.len() / 2);
            self.chunks.insert(ci + 1, Arc::new(upper));
        }
        None
    }

    fn fresh_chunk(key: K, value: V) -> Vec<(K, V)> {
        let mut chunk = Vec::with_capacity(CHUNK);
        chunk.push((key, value));
        chunk
    }

    /// Unique access to chunk `ci`, copying it first if it is shared.
    /// Unlike `Arc::make_mut`, the copy reserves a full chunk (plus the
    /// one insert that splits it), so a copied partial tail does not
    /// grow by doubling to up to twice the memory a chunk needs.
    fn chunk_mut(&mut self, ci: usize) -> &mut Vec<(K, V)> {
        let slot = &mut self.chunks[ci];
        if Arc::get_mut(slot).is_none() {
            let mut copy = Vec::with_capacity(CHUNK + 1);
            copy.extend_from_slice(slot);
            *slot = Arc::new(copy);
        }
        Arc::get_mut(slot).expect("chunk is unshared after the copy")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_len() {
        let mut m: CowMap<u64, String> = CowMap::new();
        assert!(m.is_empty());
        assert_eq!(m.get(&1), None);
        assert_eq!(m.insert(1, "a".into()), None);
        assert_eq!(m.insert(2, "b".into()), None);
        assert_eq!(m.insert(1, "c".into()), Some("a".into()));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(&1).map(String::as_str), Some("c"));
        assert!(m.contains_key(&2));
        assert!(!m.contains_key(&3));
    }

    #[test]
    fn appends_fill_chunks_and_clones_share_them() {
        let mut m: CowMap<u64, u64> = CowMap::new();
        for i in 0..(10 * CHUNK as u64 + 5) {
            m.insert(i, i * 2);
        }
        assert_eq!(m.chunk_count(), 11, "in-order appends pack full chunks");
        let snapshot = m.clone();
        assert_eq!(m.shared_chunks_with(&snapshot), 11, "a clone copies no chunk");

        // A window of appends copies only the partial tail chunk.
        for i in 0..300 {
            m.insert(10 * CHUNK as u64 + 5 + i, 0);
        }
        assert_eq!(snapshot.shared_chunks_with(&m), 10);
        // A retroactive overwrite copies the one chunk it lands in.
        m.insert(3, 7);
        assert_eq!(snapshot.shared_chunks_with(&m), 9);
        assert_eq!(snapshot.get(&3), Some(&6), "the snapshot keeps its view");
        assert_eq!(snapshot.len(), 10 * CHUNK + 5);
        assert_eq!(m.len(), 10 * CHUNK + 305);
    }

    #[test]
    fn mid_map_inserts_split_full_chunks() {
        let mut m: CowMap<u64, ()> = CowMap::new();
        for i in 0..(2 * CHUNK as u64) {
            m.insert(2 * i, ());
        }
        assert_eq!(m.chunk_count(), 2);
        let snapshot = m.clone();
        m.insert(1, ());
        assert_eq!(m.chunk_count(), 3, "a full chunk splits in half");
        assert_eq!(m.shared_chunks_with(&snapshot), 1, "only the split chunk diverged");
        let keys: Vec<u64> = m.iter().map(|(&k, ())| k).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(keys.len(), 2 * CHUNK + 1);
    }

    #[test]
    fn read_paths_never_copy() {
        let mut m: CowMap<u64, u64> = CowMap::new();
        for i in 0..1_000 {
            m.insert(i, i);
        }
        let snapshot = m.clone();
        assert_eq!(m.get(&5), Some(&5));
        assert!(m.contains_key(&50));
        assert!(!m.contains_key(&12_345));
        assert_eq!(m.iter().count(), 1_000);
        assert_eq!(m.shared_chunks_with(&snapshot), m.chunk_count());
    }
}
