//! Fund-flow graph utilities.
//!
//! The clustering step of the paper (§7.1) groups operator accounts that
//! are connected by transactions — directly or through a shared labeled
//! phishing account. That is a connected-components problem over a fund
//! flow graph; this crate provides the pieces the pipeline uses:
//!
//! * [`UnionFind`] — path-compressed, union-by-rank disjoint sets keyed
//!   by [`Address`].
//! * [`CowMap`] — a key-ordered map of `Arc`-shared sorted chunks that
//!   gives published snapshots O(chunks) clones and O(delta) divergence.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cow;

pub use cow::CowMap;

use std::collections::HashMap;

use eth_types::Address;
use serde::{Deserialize, Deserializer, Serialize, Serializer};

/// Disjoint-set forest over addresses, with path compression and union by
/// rank. Addresses are interned on first use.
///
/// The structure is incremental: [`UnionFind::union`] reports whether two
/// components actually merged, and [`UnionFind::find`] exposes the current
/// representative, so a live consumer (the streaming clusterer) can react
/// to merges as edges arrive instead of re-partitioning from scratch. The
/// final partition depends only on the edge *set*, never the order edges
/// were applied, and [`UnionFind::components`] returns address-sorted
/// output — so batch and incremental feeds of the same edges are
/// indistinguishable.
#[derive(Debug, Clone, Default)]
pub struct UnionFind {
    index: HashMap<Address, usize>,
    addrs: Vec<Address>,
    parent: Vec<usize>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// Creates an empty forest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns an address (no-op if already present).
    pub fn insert(&mut self, a: Address) -> usize {
        if let Some(&i) = self.index.get(&a) {
            return i;
        }
        let i = self.parent.len();
        self.index.insert(a, i);
        self.addrs.push(a);
        self.parent.push(i);
        self.rank.push(0);
        i
    }

    fn find_idx(&mut self, mut i: usize) -> usize {
        while self.parent[i] != i {
            self.parent[i] = self.parent[self.parent[i]]; // halving
            i = self.parent[i];
        }
        i
    }

    /// Unions the sets containing `a` and `b`. Returns `true` when two
    /// distinct components merged, `false` when the pair was already
    /// connected (the incremental-feed signal).
    pub fn union(&mut self, a: Address, b: Address) -> bool {
        let (ia, ib) = (self.insert(a), self.insert(b));
        let (ra, rb) = (self.find_idx(ia), self.find_idx(ib));
        if ra == rb {
            return false;
        }
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb,
            std::cmp::Ordering::Greater => self.parent[rb] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
            }
        }
        true
    }

    /// Current representative of `a`'s component, or `None` if the
    /// address was never interned. Only component *identity* is stable
    /// (two addresses share a representative iff connected); which
    /// member represents may change across unions.
    pub fn find(&mut self, a: Address) -> Option<Address> {
        let i = *self.index.get(&a)?;
        let r = self.find_idx(i);
        Some(self.addrs[r])
    }

    /// `true` if `a` and `b` are in the same set. Unknown addresses are
    /// singletons (equal only to themselves).
    pub fn connected(&mut self, a: Address, b: Address) -> bool {
        if a == b {
            return true;
        }
        match (self.index.get(&a).copied(), self.index.get(&b).copied()) {
            (Some(ia), Some(ib)) => self.find_idx(ia) == self.find_idx(ib),
            _ => false,
        }
    }

    /// Groups all interned addresses into components. Deterministic:
    /// components and their members are sorted by address.
    pub fn components(&mut self) -> Vec<Vec<Address>> {
        let addrs: Vec<Address> = self.index.keys().copied().collect();
        let mut groups: HashMap<usize, Vec<Address>> = HashMap::new();
        for a in addrs {
            let i = self.index[&a];
            let root = self.find_idx(i);
            groups.entry(root).or_default().push(a);
        }
        let mut out: Vec<Vec<Address>> = groups.into_values().collect();
        for g in &mut out {
            g.sort_unstable();
        }
        out.sort_unstable_by_key(|g| g[0]);
        out
    }

    /// Number of interned addresses.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// `true` if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }
}

/// The serialized shape of a [`UnionFind`]: the intern list plus the
/// parent/rank forest in intern order. The address→index map is
/// derivable (it is the inverse of `addrs`) and rebuilt on
/// deserialization, so the serialized form carries no redundant state
/// and a round trip reproduces the forest exactly — same representatives,
/// same ranks, same compression state.
#[derive(Serialize, Deserialize)]
struct UnionFindState {
    addrs: Vec<Address>,
    parent: Vec<usize>,
    rank: Vec<u8>,
}

impl Serialize for UnionFind {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        UnionFindState {
            addrs: self.addrs.clone(),
            parent: self.parent.clone(),
            rank: self.rank.clone(),
        }
        .serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for UnionFind {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let state = UnionFindState::deserialize(deserializer)?;
        let index = state.addrs.iter().enumerate().map(|(i, &a)| (a, i)).collect();
        Ok(UnionFind { index, addrs: state.addrs, parent: state.parent, rank: state.rank })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(n: u8) -> Address {
        Address::from_key_seed(&[n])
    }

    #[test]
    fn union_find_basic() {
        let mut uf = UnionFind::new();
        uf.union(addr(1), addr(2));
        uf.union(addr(3), addr(4));
        assert!(uf.connected(addr(1), addr(2)));
        assert!(!uf.connected(addr(1), addr(3)));
        uf.union(addr(2), addr(3));
        assert!(uf.connected(addr(1), addr(4)));
        assert_eq!(uf.len(), 4);
    }

    #[test]
    fn union_find_unknown_addresses() {
        let mut uf = UnionFind::new();
        assert!(uf.connected(addr(9), addr(9)));
        assert!(!uf.connected(addr(9), addr(8)));
        assert!(uf.is_empty());
    }

    #[test]
    fn union_find_components_deterministic() {
        let mut a = UnionFind::new();
        let mut b = UnionFind::new();
        // Insert in different orders; same partition.
        a.union(addr(1), addr(2));
        a.union(addr(5), addr(6));
        a.insert(addr(9));
        b.insert(addr(9));
        b.union(addr(6), addr(5));
        b.union(addr(2), addr(1));
        assert_eq!(a.components(), b.components());
        assert_eq!(a.components().len(), 3);
    }

    #[test]
    fn union_find_idempotent_union() {
        let mut uf = UnionFind::new();
        uf.union(addr(1), addr(2));
        uf.union(addr(1), addr(2));
        uf.union(addr(2), addr(1));
        assert_eq!(uf.components().len(), 1);
    }

    #[test]
    fn union_reports_merges() {
        let mut uf = UnionFind::new();
        assert!(uf.union(addr(1), addr(2)), "first union merges");
        assert!(!uf.union(addr(1), addr(2)), "repeat is a no-op");
        assert!(!uf.union(addr(2), addr(1)), "orientation is irrelevant");
        assert!(uf.union(addr(3), addr(4)));
        assert!(uf.union(addr(2), addr(3)), "bridging two components merges");
        assert!(!uf.union(addr(1), addr(4)), "already transitively connected");
        assert!(!uf.union(addr(5), addr(5)), "self-union never merges");
    }

    #[test]
    fn find_tracks_representatives() {
        let mut uf = UnionFind::new();
        assert_eq!(uf.find(addr(1)), None, "unknown address has no component");
        uf.insert(addr(1));
        assert_eq!(uf.find(addr(1)), Some(addr(1)), "singleton represents itself");
        uf.union(addr(1), addr(2));
        uf.union(addr(3), addr(4));
        assert_eq!(uf.find(addr(1)), uf.find(addr(2)));
        assert_ne!(uf.find(addr(1)), uf.find(addr(3)));
        uf.union(addr(2), addr(4));
        let rep = uf.find(addr(1));
        for n in 1..=4 {
            assert_eq!(uf.find(addr(n)), rep, "all members share one representative");
        }
    }

    /// Feeding edges one at a time (the streaming clusterer's shape)
    /// yields the same partition as a batch feed — `components()` is a
    /// pure function of the edge set.
    #[test]
    fn incremental_feed_matches_batch() {
        let edges = [(1u8, 2u8), (5, 6), (2, 6), (7, 8), (3, 3), (8, 7)];
        let mut batch = UnionFind::new();
        for &(a, b) in &edges {
            batch.union(addr(a), addr(b));
        }
        let mut inc = UnionFind::new();
        let mut merges = 0;
        for &(a, b) in edges.iter().rev() {
            merges += inc.union(addr(a), addr(b)) as usize;
        }
        assert_eq!(inc.components(), batch.components());
        // n nodes split into k components need exactly n - k merges.
        let nodes = inc.len();
        assert_eq!(merges, nodes - inc.components().len());
    }

    /// A serialized forest restores to the same partition *and* the
    /// same internal forest: further unions behave identically on both
    /// sides.
    #[test]
    fn union_find_serde_round_trip() {
        let mut uf = UnionFind::new();
        uf.union(addr(1), addr(2));
        uf.union(addr(3), addr(4));
        uf.insert(addr(9));
        let json = serde_json::to_string(&uf).expect("serializes");
        let mut back: UnionFind = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back.components(), uf.components());
        assert_eq!(back.len(), uf.len());
        assert_eq!(back.find(addr(1)), uf.find(addr(1)));
        // Post-restore unions stay in lockstep with the original.
        assert_eq!(back.union(addr(2), addr(3)), uf.union(addr(2), addr(3)));
        assert_eq!(back.components(), uf.components());
        assert_eq!(
            serde_json::to_string(&back).expect("serializes"),
            serde_json::to_string(&uf).expect("serializes"),
            "round trip is byte-stable"
        );
    }
}
