//! A fast, deterministic hasher for the workspace's internal maps.
//!
//! `std`'s default `RandomState` (SipHash-1-3 with per-process random
//! keys) is the right default against hash-flooding, but the pipeline's
//! keys are keccak-derived addresses, interned ids, tx ids and small
//! integers — already uniform and attacker-free — and the ledger and the
//! streaming state machines perform several map operations per
//! transaction, so the hash itself shows up in the profile. [`FxHasher`]
//! is the rustc-style multiply-xor hash: a few cycles per word,
//! deterministic across runs.
//!
//! Determinism here is a *layout* property only: every serialized
//! artifact sorts what it extracts from an Fx-hashed map, so swapping
//! hashers can never change a released byte. It does make in-memory
//! iteration order reproducible run-to-run, which keeps debugging sane.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the Firefox/rustc Fx hash (the golden
/// ratio scaled to 64 bits).
pub(crate) const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The rustc-style Fx hasher: `hash = (hash rotl 5 ^ word) * SEED` per
/// input word. Not DoS-resistant — only for keccak-derived, trusted keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail) ^ rest.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`] (zero-sized, deterministic).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed by the deterministic Fx hash.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed by the deterministic Fx hash.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn deterministic_across_builders() {
        let a = FxBuildHasher::default().hash_one([1u8; 20]);
        let b = FxBuildHasher::default().hash_one([1u8; 20]);
        assert_eq!(a, b);
        assert_ne!(a, FxBuildHasher::default().hash_one([2u8; 20]));
    }

    #[test]
    fn tail_bytes_distinguish_lengths() {
        let h = |bytes: &[u8]| {
            let mut hasher = FxHasher::default();
            hasher.write(bytes);
            hasher.finish()
        };
        assert_ne!(h(&[0u8; 3]), h(&[0u8; 4]));
        assert_ne!(h(&[7u8; 8]), h(&[7u8; 9]));
    }

    /// Pins the hash of a few keys so a change to the mixing function
    /// (which would silently reshuffle every map's in-memory iteration
    /// order) fails loudly.
    #[test]
    fn hash_values_are_pinned() {
        let h = |bytes: &[u8]| {
            let mut hasher = FxHasher::default();
            hasher.write(bytes);
            hasher.finish()
        };
        let mut word = FxHasher::default();
        word.write_u64(1);
        assert_eq!(word.finish(), SEED);
        assert_eq!(h(&[]), 0);
        assert_eq!(h(&[1u8; 8]), 0x0101_0101_0101_0101u64.wrapping_mul(SEED));
    }

    #[test]
    fn map_and_set_behave() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        m.insert(1, 2);
        assert_eq!(m.get(&1), Some(&2));
        let mut s: FxHashSet<u64> = FxHashSet::default();
        assert!(s.insert(9));
        assert!(s.contains(&9));
    }
}
