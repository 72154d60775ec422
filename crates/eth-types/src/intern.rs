//! Address interning: dense `u32` ids for 20-byte [`Address`]es.
//!
//! The workspace's hot paths (account histories, asset-state maps, the
//! detector's contact index) key maps by address. Hashing 20 bytes per
//! probe and storing 20-byte keys per entry is the dominant cache cost
//! at scale, so the chain interns every address it observes into an
//! [`AddrId`] — a plain `u32` that hashes in one instruction and packs
//! five ids per cache line where addresses packed one and a half.
//!
//! Determinism contract: ids are assigned in first-intern order, so two
//! runs that observe addresses in the same order assign identical ids.
//! Ids are **instance-local** — they never appear in serialized
//! artifacts (the chain's serializer resolves every id back to its
//! address), so a deserialized chain may assign different ids without
//! changing a single artifact byte. The daas-serve engine checkpoint
//! holds no ids either: it records a transaction cursor, and restore
//! replays the freshly rebuilt chain to it.
//!
//! Concurrency contract: interning requires `&mut self`; every lookup
//! (`resolve`, `lookup`) takes `&self` and touches no interior
//! mutability, so a built interner is `Sync` and readers scan id
//! columns from any number of threads without locks.

use std::hash::Hasher;

use crate::fxhash::SEED as FX_SEED;
use crate::{Address, FxHasher};

/// Dense identifier for an interned [`Address`].
///
/// `AddrId::NONE` (`u32::MAX`) is reserved as the niche for "no
/// address" so optional columns (a transaction's `to`/`created`) stay
/// four bytes wide.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AddrId(u32);

impl AddrId {
    /// The "no address" sentinel for optional columns.
    pub const NONE: AddrId = AddrId(u32::MAX);

    /// The raw id (also the index into the interner's address table).
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw `u32` value.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Whether this id is the [`AddrId::NONE`] sentinel.
    #[inline]
    pub const fn is_none(self) -> bool {
        self.0 == u32::MAX
    }

    /// `Some(self)` unless this is the sentinel — for lowering optional
    /// columns back into `Option`.
    #[inline]
    pub const fn get(self) -> Option<AddrId> {
        if self.is_none() {
            None
        } else {
            Some(self)
        }
    }
}

/// First-come-first-serve address interner.
///
/// Open-addressed id table over an append-only address arena. Writes
/// go through `&mut self`; reads are `&self` and lock-free (see the
/// module docs for the determinism and concurrency contracts).
#[derive(Clone, Debug, Default)]
pub struct AddrInterner {
    /// `id → address`, in first-intern order.
    addrs: Vec<Address>,
    /// Open-addressed hash table of ids, keyed by the address they
    /// resolve to. `u32::MAX` marks an empty slot. Power-of-two sized.
    slots: Vec<u32>,
}

/// The workspace [`FxHasher`] over the address's three words: a few
/// multiplies where a byte-serial hash ran twenty.
///
/// A multiply carries each input bit only upward, so Fx's low bits —
/// the ones a slot mask keeps — see little of the input: a byte that
/// varies high in a word can leave them unchanged. The finish folds the
/// high half onto the low half, multiplies once more, and byte-swaps the
/// product so its best-mixed top bits become the slot bits.
#[inline]
fn hash_addr(addr: &Address) -> u64 {
    let (hi, mid, lo) = addr.words();
    let mut hasher = FxHasher::default();
    hasher.write_u64(hi);
    hasher.write_u64(mid);
    hasher.write_u32(lo);
    let hash = hasher.finish();
    (hash ^ (hash >> 32)).wrapping_mul(FX_SEED).swap_bytes()
}

impl AddrInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty interner with room for `capacity` addresses.
    pub fn with_capacity(capacity: usize) -> Self {
        let slots = (capacity * 2).next_power_of_two().max(16);
        AddrInterner { addrs: Vec::with_capacity(capacity), slots: vec![u32::MAX; slots] }
    }

    /// Number of distinct interned addresses.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Whether no address has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// The id for `addr`, interning it if unseen. Ids are assigned
    /// densely in first-intern order.
    ///
    /// Panics if the interner is full (`u32::MAX - 1` addresses) —
    /// orders of magnitude beyond any simulated world.
    pub fn intern(&mut self, addr: Address) -> AddrId {
        if self.slots.len() < (self.addrs.len() + 1) * 2 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut slot = hash_addr(&addr) as usize & mask;
        loop {
            let id = self.slots[slot];
            if id == u32::MAX {
                let new = self.addrs.len() as u32;
                assert!(new < u32::MAX, "address interner full");
                self.addrs.push(addr);
                self.slots[slot] = new;
                return AddrId(new);
            }
            if self.addrs[id as usize] == addr {
                return AddrId(id);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Interns an optional address, mapping `None` to [`AddrId::NONE`].
    pub fn intern_opt(&mut self, addr: Option<Address>) -> AddrId {
        match addr {
            Some(a) => self.intern(a),
            None => AddrId::NONE,
        }
    }

    /// The id previously assigned to `addr`, if any. Lock-free `&self`
    /// read.
    pub fn lookup(&self, addr: Address) -> Option<AddrId> {
        if self.addrs.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut slot = hash_addr(&addr) as usize & mask;
        loop {
            let id = self.slots[slot];
            if id == u32::MAX {
                return None;
            }
            if self.addrs[id as usize] == addr {
                return Some(AddrId(id));
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The address behind an id. Lock-free `&self` read.
    ///
    /// Panics on [`AddrId::NONE`] or an id from a different interner.
    #[inline]
    pub fn resolve(&self, id: AddrId) -> Address {
        self.addrs[id.index()]
    }

    /// The address behind an optional-column id (`NONE` → `None`).
    #[inline]
    pub fn resolve_opt(&self, id: AddrId) -> Option<Address> {
        id.get().map(|id| self.addrs[id.index()])
    }

    /// All interned addresses in id order (index == `AddrId::index`).
    pub fn addresses(&self) -> &[Address] {
        &self.addrs
    }

    /// Heap footprint of the id table and address arena, in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.addrs.capacity() * std::mem::size_of::<Address>()
            + self.slots.capacity() * std::mem::size_of::<u32>()
    }

    /// Doubles the slot table and re-seats every id.
    fn grow(&mut self) {
        let new_len = (self.slots.len() * 2).max(16);
        let mask = new_len - 1;
        let mut slots = vec![u32::MAX; new_len];
        for (id, addr) in self.addrs.iter().enumerate() {
            let mut slot = hash_addr(addr) as usize & mask;
            while slots[slot] != u32::MAX {
                slot = (slot + 1) & mask;
            }
            slots[slot] = id as u32;
        }
        self.slots = slots;
    }
}

/// Address-ordered dense ids for a run of addresses, pushed one at a
/// time: [`AddrRanks::finish`] returns the distinct addresses, sorted,
/// and each pushed address's index among them. The ids are local to
/// one run (a private interner's, renumbered); unlike [`AddrId`]s,
/// which follow first-intern order, they order like the addresses, so
/// tables indexed by them read out in address order.
#[derive(Debug, Default)]
pub struct AddrRanks {
    interner: AddrInterner,
    ids: Vec<u32>,
}

impl AddrRanks {
    /// An empty run with room for `capacity` distinct addresses.
    pub fn with_capacity(capacity: usize) -> Self {
        AddrRanks { interner: AddrInterner::with_capacity(capacity), ids: Vec::new() }
    }

    /// Appends one address to the run.
    #[inline]
    pub fn push(&mut self, addr: Address) {
        let id = self.interner.intern(addr);
        self.ids.push(id.raw());
    }

    /// The distinct addresses in order, and each pushed address's rank.
    pub fn finish(self) -> (Vec<Address>, Vec<u32>) {
        let (distinct, mut ids) = (self.interner.addrs, self.ids);
        // Sort by the leading word; only distinct addresses that share
        // it need the full compare.
        let mut order: Vec<(u64, u32)> =
            distinct.iter().enumerate().map(|(i, a)| (a.to_low_u64(), i as u32)).collect();
        order.sort_unstable_by(|x, y| {
            x.0.cmp(&y.0).then_with(|| distinct[x.1 as usize].cmp(&distinct[y.1 as usize]))
        });
        let mut rank = vec![0u32; distinct.len()];
        for (r, &(_, first)) in order.iter().enumerate() {
            rank[first as usize] = r as u32;
        }
        for id in &mut ids {
            *id = rank[*id as usize];
        }
        (order.iter().map(|&(_, first)| distinct[first as usize]).collect(), ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rank(addrs: impl IntoIterator<Item = Address>) -> (Vec<Address>, Vec<u32>) {
        let mut ranks = AddrRanks::default();
        addrs.into_iter().for_each(|a| ranks.push(a));
        ranks.finish()
    }

    #[test]
    fn ranks_follow_address_order_not_first_sight() {
        let (sorted, ids) = rank([addr(9), addr(2), addr(9), addr(5), addr(2)]);
        let mut expect = vec![addr(9), addr(2), addr(5)];
        expect.sort_unstable();
        assert_eq!(sorted, expect);
        let back: Vec<Address> = ids.iter().map(|&i| sorted[i as usize]).collect();
        assert_eq!(back, vec![addr(9), addr(2), addr(9), addr(5), addr(2)]);
        assert_eq!(rank(std::iter::empty()), (vec![], vec![]));
        // A shared leading word falls back to the full compare.
        let hi = Address([7; 20]);
        let mut lo = hi;
        lo.0[8..].fill(1);
        assert_eq!(hi.to_low_u64(), lo.to_low_u64());
        assert_eq!(rank([hi, lo, hi]), (vec![lo, hi], vec![1, 0, 1]));
    }

    fn addr(n: u8) -> Address {
        let mut bytes = [0u8; 20];
        bytes[19] = n;
        bytes[0] = n.wrapping_mul(37);
        Address(bytes)
    }

    #[test]
    fn first_intern_order_assigns_dense_ids() {
        let mut interner = AddrInterner::new();
        let a = interner.intern(addr(1));
        let b = interner.intern(addr(2));
        let c = interner.intern(addr(3));
        assert_eq!((a.index(), b.index(), c.index()), (0, 1, 2));
        assert_eq!(interner.len(), 3);
    }

    #[test]
    fn reinterning_returns_the_same_id() {
        let mut interner = AddrInterner::new();
        let a = interner.intern(addr(9));
        let _ = interner.intern(addr(7));
        assert_eq!(interner.intern(addr(9)), a);
        assert_eq!(interner.len(), 2);
    }

    #[test]
    fn lookup_and_resolve_are_inverses() {
        let mut interner = AddrInterner::new();
        for n in 0..200 {
            interner.intern(addr(n));
        }
        for n in 0..200 {
            let id = interner.lookup(addr(n)).expect("interned");
            assert_eq!(interner.resolve(id), addr(n));
        }
        assert_eq!(interner.lookup(addr(201)), None);
    }

    #[test]
    fn growth_preserves_ids() {
        let mut interner = AddrInterner::with_capacity(2);
        let ids: Vec<AddrId> = (0..100).map(|n| interner.intern(addr(n))).collect();
        for (n, id) in ids.iter().enumerate() {
            assert_eq!(interner.lookup(addr(n as u8)), Some(*id));
        }
    }

    #[test]
    fn optional_columns_round_trip_through_the_sentinel() {
        let mut interner = AddrInterner::new();
        assert_eq!(interner.intern_opt(None), AddrId::NONE);
        assert!(AddrId::NONE.is_none());
        assert_eq!(interner.resolve_opt(AddrId::NONE), None);
        let id = interner.intern_opt(Some(addr(4)));
        assert_eq!(interner.resolve_opt(id), Some(addr(4)));
    }

    /// The longest successful-lookup probe: how far past its home slot
    /// any interned address sits.
    fn longest_probe(interner: &AddrInterner) -> usize {
        let mask = interner.slots.len() - 1;
        (0..interner.slots.len())
            .filter(|&at| interner.slots[at] != u32::MAX)
            .map(|at| {
                let home = hash_addr(&interner.addrs[interner.slots[at] as usize]) as usize & mask;
                at.wrapping_sub(home) & mask
            })
            .max()
            .unwrap_or(0)
    }

    /// Interns a structured address set (distinct addresses, in order)
    /// and checks ids, lookups and the longest probe.
    fn check_structured_set(name: &str, set: &[Address]) {
        let mut interner = AddrInterner::new();
        for (n, addr) in set.iter().enumerate() {
            assert_eq!(interner.intern(*addr).index(), n, "{name}: ids in first-intern order");
        }
        assert_eq!(interner.len(), set.len(), "{name}: every address gets its own id");
        for (n, addr) in set.iter().enumerate() {
            let id = interner.lookup(*addr).unwrap_or_else(|| panic!("{name}: {addr} not found"));
            assert_eq!(id.index(), n, "{name}: lookup of {addr}");
            assert_eq!(interner.resolve(id), *addr, "{name}: resolve of {addr}");
        }
        // The table stays at most half full, where linear probing over a
        // well-mixed hash keeps every run short. A hash whose slot bits
        // ignore some input bytes piles whole families of these
        // addresses onto one home slot and probes for hundreds of slots.
        assert!(interner.slots.len() >= 2 * interner.len(), "{name}: load above one half");
        let probe = longest_probe(&interner);
        assert!(probe <= MAX_PROBE, "{name}: longest probe {probe} > {MAX_PROBE}");
    }

    /// The bound on the longest probe over the structured sets below:
    /// about twice what a uniformly random hash gives for 2^17 keys at
    /// load one half (~25–35 slots).
    const MAX_PROBE: usize = 64;

    #[test]
    fn one_varying_byte_at_every_position_gets_distinct_ids() {
        let mut set = vec![Address::ZERO];
        for at in 0..20 {
            for value in 1..=255u8 {
                let mut bytes = [0u8; 20];
                bytes[at] = value;
                set.push(Address(bytes));
            }
        }
        check_structured_set("one varying byte", &set);
    }

    #[test]
    fn sequential_low_and_high_words_get_distinct_ids() {
        const COUNT: u64 = 1 << 17;
        let low: Vec<Address> = (0..COUNT)
            .map(|n| {
                let mut bytes = [0u8; 20];
                bytes[12..].copy_from_slice(&n.to_be_bytes());
                Address(bytes)
            })
            .collect();
        check_structured_set("sequential low word", &low);
        let high: Vec<Address> = (0..COUNT)
            .map(|n| {
                let mut bytes = [0u8; 20];
                bytes[..8].copy_from_slice(&n.to_be_bytes());
                Address(bytes)
            })
            .collect();
        check_structured_set("sequential high word", &high);
    }

    #[test]
    fn interner_is_deterministic_across_builds() {
        let build = || {
            let mut interner = AddrInterner::new();
            (0..64).map(|n| interner.intern(addr(n ^ 0x2a)).raw()).collect::<Vec<u32>>()
        };
        assert_eq!(build(), build());
    }
}
