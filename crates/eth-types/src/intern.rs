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
//! honours the same rule: checkpointed state is keyed by address, and
//! restore re-interns against the freshly rebuilt chain (which replays
//! the same deterministic world and therefore assigns the same ids in
//! the same first-intern order).
//!
//! Concurrency contract: interning requires `&mut self`; every lookup
//! (`resolve`, `lookup`) takes `&self` and touches no interior
//! mutability, so a built interner is `Sync` and readers scan id
//! columns from any number of threads without locks.

use crate::Address;

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

/// FNV-1a over the address bytes — cheap, decent dispersion, and free
/// of external dependencies (this crate is the workspace foundation).
#[inline]
fn hash_addr(addr: &Address) -> u64 {
    let mut hash = 0xcbf29ce484222325u64;
    for &byte in addr.as_bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
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

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn interner_is_deterministic_across_builds() {
        let build = || {
            let mut interner = AddrInterner::new();
            (0..64).map(|n| interner.intern(addr(n ^ 0x2a)).raw()).collect::<Vec<u32>>()
        };
        assert_eq!(build(), build());
    }
}
