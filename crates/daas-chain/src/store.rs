//! Columnar (struct-of-arrays) transaction storage with interned
//! addresses — the cache-friendly tx arena behind [`Chain`].
//!
//! The pre-columnar layout was `Vec<Transaction>`: every transaction a
//! ~200-byte struct owning two heap `Vec`s, so a classification pass
//! chased three pointers per transaction and hashed 20-byte addresses
//! on every map probe. This module stores the same data as parallel
//! columns over one [`AddrInterner`]:
//!
//! * one arena entry per transaction: scalar columns (`block`,
//!   `timestamp`, `from`, `to`, `value`, …) indexed directly by
//!   [`TxId`], with addresses as 4-byte [`AddrId`]s;
//! * no hash column: a transaction's hash is a function of columns the
//!   arena already holds, so [`TxView::hash`] derives it on read; only a
//!   hash supplied from outside that differs from the derivation is
//!   stored, in a per-id exception map;
//! * transfers and approvals flattened into shared columns, each
//!   transaction owning a contiguous `(offset, len)` range — eligibility
//!   scanning is a linear walk over dense arrays, no per-tx `Vec`s;
//! * function names interned once (the simulator emits ~a dozen
//!   distinct names across hundreds of thousands of calls).
//!
//! Ids are assigned in first-intern order (deterministic per run) and
//! are **instance-local**: serialization always materializes back to
//! [`Transaction`] values, so artifacts never contain an id and the
//! layout change is invisible on disk. [`TxView`] is the cheap `Copy`
//! handle consumers read through; [`Transaction`] remains the
//! materialized interchange/builder form.
//!
//! [`Chain`]: crate::Chain

use eth_types::{keccak256, AddrId, AddrInterner, Address, FxHashMap, H256, U256};

use crate::asset::Asset;
use crate::block::{BlockNumber, Timestamp};
use crate::tx::{Approval, CallInfo, Transaction, Transfer, TxId};

/// Interned form of [`Asset`]: token contracts as [`AddrId`]s, so
/// grouping keys compare and hash in a couple of instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssetRef {
    /// Native ETH.
    Eth,
    /// An ERC-20 token contract.
    Erc20(AddrId),
    /// A specific ERC-721 token.
    Erc721 {
        /// Collection contract.
        token: AddrId,
        /// Token id within the collection.
        id: u64,
    },
}

impl AssetRef {
    /// The interned token contract, if the asset is a token.
    #[inline]
    pub fn contract(&self) -> Option<AddrId> {
        match self {
            AssetRef::Eth => None,
            AssetRef::Erc20(token) => Some(*token),
            AssetRef::Erc721 { token, .. } => Some(*token),
        }
    }

    /// `true` for divisible assets (ETH and ERC-20) — the only asset
    /// classes a profit-sharing split can be observed in.
    #[inline]
    pub fn is_fungible(&self) -> bool {
        !matches!(self, AssetRef::Erc721 { .. })
    }
}

/// Sentinel for "no interned function name" in the `function` column.
const NO_FN: u32 = u32::MAX;

/// The hash of the transaction with these fields:
/// `keccak256(id ‖ from ‖ to ‖ value ‖ timestamp)`, with `id` as 4
/// big-endian bytes, the addresses as their 20 bytes (`to` omitted for
/// a contract creation), `value` as 32 big-endian bytes and `timestamp`
/// as 8. Every transaction a `Chain` records carries this hash.
fn tx_hash(
    id: TxId,
    from: Address,
    to: Option<Address>,
    value: U256,
    timestamp: Timestamp,
) -> H256 {
    // At most 4 + 20 + 20 + 32 + 8 = 84 bytes: a stack buffer.
    let mut preimage = [0u8; 84];
    let mut len = 0usize;
    let mut put = |bytes: &[u8]| {
        preimage[len..len + bytes.len()].copy_from_slice(bytes);
        len += bytes.len();
    };
    put(&id.to_be_bytes());
    put(from.as_bytes());
    if let Some(to) = to {
        put(to.as_bytes());
    }
    put(&value.to_be_bytes());
    put(&timestamp.to_be_bytes());
    keccak256(&preimage[..len])
}

/// The columnar transaction arena. See the module docs for the layout
/// and determinism contracts.
#[derive(Debug, Clone)]
pub struct TxStore {
    interner: AddrInterner,
    // --- scalar columns, one entry per transaction ---
    block: Vec<BlockNumber>,
    timestamp: Vec<Timestamp>,
    from: Vec<AddrId>,
    /// `AddrId::NONE` for contract creations.
    to: Vec<AddrId>,
    value: Vec<U256>,
    selector: Vec<Option<[u8; 4]>>,
    /// Index into `fn_names`; `NO_FN` for plain calls.
    function: Vec<u32>,
    /// `AddrId::NONE` unless the transaction created a contract.
    created: Vec<AddrId>,
    // --- flattened transfer columns, `t_off` has len() + 1 entries ---
    t_off: Vec<u32>,
    t_asset: Vec<AssetRef>,
    t_from: Vec<AddrId>,
    t_to: Vec<AddrId>,
    t_amount: Vec<U256>,
    // --- flattened approval columns, `a_off` has len() + 1 entries ---
    a_off: Vec<u32>,
    a_token: Vec<AddrId>,
    a_owner: Vec<AddrId>,
    a_spender: Vec<AddrId>,
    a_amount: Vec<U256>,
    /// Distinct outer-call function names, in first-seen order.
    fn_names: Vec<String>,
    /// Hashes that differ from `tx_hash` of their columns. Only
    /// [`TxStore::from_transactions`] adds entries.
    hash_exceptions: FxHashMap<TxId, H256>,
}

// The offset columns carry a leading 0 sentinel even when empty, so the
// derive (all-empty vectors) would be a corrupt arena — `Default` must
// route through `new`.
impl Default for TxStore {
    fn default() -> Self {
        Self::new()
    }
}

impl TxStore {
    /// An empty arena.
    pub fn new() -> Self {
        TxStore {
            interner: AddrInterner::new(),
            block: Vec::new(),
            timestamp: Vec::new(),
            from: Vec::new(),
            to: Vec::new(),
            value: Vec::new(),
            selector: Vec::new(),
            function: Vec::new(),
            created: Vec::new(),
            t_off: vec![0],
            t_asset: Vec::new(),
            t_from: Vec::new(),
            t_to: Vec::new(),
            t_amount: Vec::new(),
            a_off: vec![0],
            a_token: Vec::new(),
            a_owner: Vec::new(),
            a_spender: Vec::new(),
            a_amount: Vec::new(),
            fn_names: Vec::new(),
            hash_exceptions: FxHashMap::default(),
        }
    }

    /// Makes room for `addresses` more interned addresses and `txs` more
    /// transactions, sized for the two transfers and half an approval
    /// most of a simulated world's transactions carry, so that
    /// appending them copies no column while it grows.
    pub(crate) fn reserve(&mut self, addresses: usize, txs: usize) {
        self.interner.reserve(addresses);
        self.block.reserve(txs);
        self.timestamp.reserve(txs);
        self.from.reserve(txs);
        self.to.reserve(txs);
        self.value.reserve(txs);
        self.selector.reserve(txs);
        self.function.reserve(txs);
        self.created.reserve(txs);
        self.t_off.reserve(txs);
        self.a_off.reserve(txs);
        let (transfers, approvals) = (2 * txs, txs / 2);
        self.t_asset.reserve(transfers);
        self.t_from.reserve(transfers);
        self.t_to.reserve(transfers);
        self.t_amount.reserve(transfers);
        self.a_token.reserve(approvals);
        self.a_owner.reserve(approvals);
        self.a_spender.reserve(approvals);
        self.a_amount.reserve(approvals);
    }

    /// Number of transactions.
    pub fn len(&self) -> usize {
        self.block.len()
    }

    /// `true` before the first transaction.
    pub fn is_empty(&self) -> bool {
        self.block.is_empty()
    }

    /// Number of transactions whose hash is not the one their columns
    /// derive (see [`TxView::hash`]). Zero for every store a
    /// [`Chain`](crate::Chain) builds.
    pub fn hash_exceptions(&self) -> usize {
        self.hash_exceptions.len()
    }

    /// The address interner backing every id column.
    pub fn interner(&self) -> &AddrInterner {
        &self.interner
    }

    /// The timestamp column, one entry per transaction in id order —
    /// nondecreasing, so callers can `partition_point` time windows
    /// directly on the slice.
    pub fn timestamps(&self) -> &[Timestamp] {
        &self.timestamp
    }

    /// Interns an address (assigning it the next id if unseen).
    pub fn intern(&mut self, addr: Address) -> AddrId {
        self.interner.intern(addr)
    }

    /// The id of an already-interned address.
    #[inline]
    pub fn addr_id(&self, addr: Address) -> Option<AddrId> {
        self.interner.lookup(addr)
    }

    /// Resolves an id back to its address.
    #[inline]
    pub fn resolve(&self, id: AddrId) -> Address {
        self.interner.resolve(id)
    }

    /// Interns a materialized asset.
    pub fn intern_asset(&mut self, asset: Asset) -> AssetRef {
        match asset {
            Asset::Eth => AssetRef::Eth,
            Asset::Erc20(token) => AssetRef::Erc20(self.interner.intern(token)),
            Asset::Erc721 { token, id } => {
                AssetRef::Erc721 { token: self.interner.intern(token), id }
            }
        }
    }

    /// Resolves an interned asset back to its materialized form.
    pub fn resolve_asset(&self, asset: AssetRef) -> Asset {
        match asset {
            AssetRef::Eth => Asset::Eth,
            AssetRef::Erc20(token) => Asset::Erc20(self.interner.resolve(token)),
            AssetRef::Erc721 { token, id } => {
                Asset::Erc721 { token: self.interner.resolve(token), id }
            }
        }
    }

    /// Appends a transaction from its parts, interning every address.
    /// Returns the assigned dense id (`== len() - 1`); the transaction's
    /// hash is derived from these parts (see [`TxView::hash`]).
    #[allow(clippy::too_many_arguments)]
    pub fn push_tx(
        &mut self,
        block: BlockNumber,
        timestamp: Timestamp,
        from: Address,
        to: Option<Address>,
        value: U256,
        selector: Option<[u8; 4]>,
        function: Option<&str>,
        transfers: &[Transfer],
        approvals: &[Approval],
        created: Option<Address>,
    ) -> TxId {
        let id = self.block.len() as TxId;
        self.block.push(block);
        self.timestamp.push(timestamp);
        let from_id = self.interner.intern(from);
        self.from.push(from_id);
        let to_id = self.interner.intern_opt(to);
        self.to.push(to_id);
        self.value.push(value);
        self.selector.push(selector);
        let fn_id = match function {
            Some(name) => self.intern_fn(name),
            None => NO_FN,
        };
        self.function.push(fn_id);
        self.created.push(self.interner.intern_opt(created));
        for t in transfers {
            let asset = self.intern_asset(t.asset);
            self.t_asset.push(asset);
            let f = self.interner.intern(t.from);
            self.t_from.push(f);
            let to = self.interner.intern(t.to);
            self.t_to.push(to);
            self.t_amount.push(t.amount);
        }
        self.t_off.push(self.t_asset.len() as u32);
        for a in approvals {
            let token = self.interner.intern(a.token);
            self.a_token.push(token);
            let owner = self.interner.intern(a.owner);
            self.a_owner.push(owner);
            let spender = self.interner.intern(a.spender);
            self.a_spender.push(spender);
            self.a_amount.push(a.amount);
        }
        self.a_off.push(self.a_token.len() as u32);
        id
    }

    /// Builds an arena from materialized transactions (deserialization
    /// and tests). Transaction ids must equal their position — the
    /// arena's dense-id invariant (debug-asserted). This is the only way
    /// a hash the arena did not derive gets in: one that differs from
    /// the derivation (see [`TxView::hash`]) is kept in the exception
    /// map.
    pub fn from_transactions<I: IntoIterator<Item = Transaction>>(txs: I) -> Self {
        let mut store = Self::new();
        for tx in txs {
            debug_assert_eq!(tx.id as usize, store.len(), "tx ids must be dense");
            let id = store.push_tx(
                tx.block,
                tx.timestamp,
                tx.from,
                tx.to,
                tx.value,
                tx.call.selector,
                tx.call.function.as_deref(),
                &tx.transfers,
                &tx.approvals,
                tx.created,
            );
            if tx.hash != tx_hash(id, tx.from, tx.to, tx.value, tx.timestamp) {
                store.hash_exceptions.insert(id, tx.hash);
            }
        }
        store
    }

    /// Interns a function name (tiny set: linear probe beats a map).
    fn intern_fn(&mut self, name: &str) -> u32 {
        match self.fn_names.iter().position(|n| n == name) {
            Some(i) => i as u32,
            None => {
                self.fn_names.push(name.to_owned());
                (self.fn_names.len() - 1) as u32
            }
        }
    }

    /// A cheap `Copy` view of one transaction.
    #[inline]
    pub fn view(&self, id: TxId) -> TxView<'_> {
        debug_assert!((id as usize) < self.len());
        TxView { store: self, idx: id as usize }
    }

    /// Views over every transaction, in chain order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = TxView<'_>> + DoubleEndedIterator {
        (0..self.len()).map(move |idx| TxView { store: self, idx })
    }

    /// The most recent transaction.
    pub fn last(&self) -> Option<TxView<'_>> {
        self.len().checked_sub(1).map(|idx| TxView { store: self, idx })
    }

    /// Materializes one transaction (serialization / interchange path).
    pub fn to_transaction(&self, id: TxId) -> Transaction {
        self.view(id).to_transaction()
    }

    /// Sorted, deduped interned ids of every address transaction `id`
    /// touches — same address set as
    /// [`Transaction::touched_addresses`], two orders of magnitude
    /// cheaper to produce (no 20-byte sorts, no resolution).
    pub fn touched_ids(&self, id: TxId) -> Vec<AddrId> {
        let mut out = Vec::new();
        self.touched_ids_into(id, &mut out);
        out
    }

    /// [`TxStore::touched_ids`] into a caller-owned scratch buffer.
    pub fn touched_ids_into(&self, id: TxId, out: &mut Vec<AddrId>) {
        let idx = id as usize;
        out.clear();
        out.push(self.from[idx]);
        if let Some(to) = self.to[idx].get() {
            out.push(to);
        }
        let (t0, t1) = (self.t_off[idx] as usize, self.t_off[idx + 1] as usize);
        for i in t0..t1 {
            out.push(self.t_from[i]);
            out.push(self.t_to[i]);
            if let Some(token) = self.t_asset[i].contract() {
                out.push(token);
            }
        }
        let (a0, a1) = (self.a_off[idx] as usize, self.a_off[idx + 1] as usize);
        for i in a0..a1 {
            out.push(self.a_owner[i]);
            out.push(self.a_spender[i]);
            out.push(self.a_token[i]);
        }
        if let Some(c) = self.created[idx].get() {
            out.push(c);
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Per-column heap footprint in bytes, for the
    /// `chain.arena.bytes{column}` memory gauge. `scalars` includes the
    /// hash exception map; the `transfers` / `approvals` entries
    /// aggregate their flattened columns; `interner` covers the id table
    /// and address arena.
    pub fn column_bytes(&self) -> Vec<(&'static str, usize)> {
        use std::mem::size_of;
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * size_of::<T>()
        }
        // A hash table's entries plus one control byte each.
        let exceptions =
            self.hash_exceptions.capacity() * (size_of::<(TxId, H256)>() + 1);
        vec![
            ("scalars", {
                bytes(&self.block)
                    + bytes(&self.timestamp)
                    + bytes(&self.from)
                    + bytes(&self.to)
                    + bytes(&self.value)
                    + bytes(&self.selector)
                    + bytes(&self.function)
                    + bytes(&self.created)
                    + exceptions
            }),
            ("transfers", {
                bytes(&self.t_off)
                    + bytes(&self.t_asset)
                    + bytes(&self.t_from)
                    + bytes(&self.t_to)
                    + bytes(&self.t_amount)
            }),
            ("approvals", {
                bytes(&self.a_off)
                    + bytes(&self.a_token)
                    + bytes(&self.a_owner)
                    + bytes(&self.a_spender)
                    + bytes(&self.a_amount)
            }),
            ("interner", self.interner.heap_bytes()),
        ]
    }
}

impl<'a> IntoIterator for &'a TxStore {
    type Item = TxView<'a>;
    type IntoIter = TxStoreIter<'a>;

    fn into_iter(self) -> TxStoreIter<'a> {
        TxStoreIter { store: self, range: 0..self.len() }
    }
}

/// Iterator over every transaction view in an arena.
#[derive(Debug, Clone)]
pub struct TxStoreIter<'a> {
    store: &'a TxStore,
    range: std::ops::Range<usize>,
}

impl<'a> Iterator for TxStoreIter<'a> {
    type Item = TxView<'a>;

    fn next(&mut self) -> Option<TxView<'a>> {
        self.range.next().map(|idx| TxView { store: self.store, idx })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl ExactSizeIterator for TxStoreIter<'_> {}

impl<'a> DoubleEndedIterator for TxStoreIter<'a> {
    fn next_back(&mut self) -> Option<TxView<'a>> {
        self.range.next_back().map(|idx| TxView { store: self.store, idx })
    }
}

/// Borrowed slices of one transaction's transfer range — the raw
/// columns the classifier's eligibility scan walks linearly.
#[derive(Debug, Clone, Copy)]
pub struct TransferColumns<'a> {
    /// Interned asset per transfer.
    pub asset: &'a [AssetRef],
    /// Interned source per transfer.
    pub from: &'a [AddrId],
    /// Interned destination per transfer.
    pub to: &'a [AddrId],
    /// Amount per transfer.
    pub amount: &'a [U256],
}

/// Borrowed slices of one transaction's approval range — the
/// approval-side twin of [`TransferColumns`].
#[derive(Debug, Clone, Copy)]
pub struct ApprovalColumns<'a> {
    /// Interned token contract per approval.
    pub token: &'a [AddrId],
    /// Interned owner per approval.
    pub owner: &'a [AddrId],
    /// Interned spender per approval.
    pub spender: &'a [AddrId],
    /// Amount per approval.
    pub amount: &'a [U256],
}

/// A cheap, `Copy` read-only view of one transaction in the arena.
///
/// Scalar accessors read straight from the columns; `transfers()` /
/// `approvals()` materialize [`Transfer`] / [`Approval`] values on the
/// fly (resolving ids), and [`TxView::transfer_columns`] and
/// [`TxView::approval_columns`] expose the raw interned columns for hot
/// paths that never need addresses.
#[derive(Debug, Clone, Copy)]
pub struct TxView<'a> {
    store: &'a TxStore,
    idx: usize,
}

impl<'a> TxView<'a> {
    /// The arena this view reads from.
    #[inline]
    pub fn store(&self) -> &'a TxStore {
        self.store
    }

    /// Dense chain-local id.
    #[inline]
    pub fn id(&self) -> TxId {
        self.idx as TxId
    }

    /// Transaction hash: `keccak256(id ‖ from ‖ to ‖ value ‖ timestamp)`
    /// over this transaction's columns — `id` as 4 big-endian bytes,
    /// the addresses as their 20 bytes (`to` omitted for a contract
    /// creation), `value` as 32 and `timestamp` as 8 big-endian bytes —
    /// unless the arena was built from a transaction that carried a
    /// different one (see [`TxStore::from_transactions`]).
    pub fn hash(&self) -> H256 {
        match self.store.hash_exceptions.get(&self.id()) {
            Some(&hash) => hash,
            None => tx_hash(self.id(), self.from(), self.to(), self.value(), self.timestamp()),
        }
    }

    /// Block containing the transaction.
    #[inline]
    pub fn block(&self) -> BlockNumber {
        self.store.block[self.idx]
    }

    /// Timestamp of that block.
    #[inline]
    pub fn timestamp(&self) -> Timestamp {
        self.store.timestamp[self.idx]
    }

    /// EOA that signed and sent the transaction.
    #[inline]
    pub fn from(&self) -> Address {
        self.store.resolve(self.store.from[self.idx])
    }

    /// Interned sender id.
    #[inline]
    pub fn from_id(&self) -> AddrId {
        self.store.from[self.idx]
    }

    /// Outermost call target (`None` only for contract creations).
    #[inline]
    pub fn to(&self) -> Option<Address> {
        self.store.interner.resolve_opt(self.store.to[self.idx])
    }

    /// Interned call target ([`AddrId::NONE`] for creations).
    #[inline]
    pub fn to_id(&self) -> AddrId {
        self.store.to[self.idx]
    }

    /// ETH value attached to the outermost call.
    #[inline]
    pub fn value(&self) -> U256 {
        self.store.value[self.idx]
    }

    /// 4-byte function selector of the outermost call, if any.
    #[inline]
    pub fn selector(&self) -> Option<[u8; 4]> {
        self.store.selector[self.idx]
    }

    /// Function name of the outermost call, if the ABI is known.
    #[inline]
    pub fn function(&self) -> Option<&'a str> {
        let id = self.store.function[self.idx];
        (id != NO_FN).then(|| self.store.fn_names[id as usize].as_str())
    }

    /// Outermost call metadata, materialized.
    pub fn call(&self) -> CallInfo {
        CallInfo { selector: self.selector(), function: self.function().map(str::to_owned) }
    }

    /// Contract created by this transaction, if any.
    #[inline]
    pub fn created(&self) -> Option<Address> {
        self.store.interner.resolve_opt(self.store.created[self.idx])
    }

    /// Interned created-contract id ([`AddrId::NONE`] if none).
    #[inline]
    pub fn created_id(&self) -> AddrId {
        self.store.created[self.idx]
    }

    /// Number of transfers in the trace.
    #[inline]
    pub fn transfer_count(&self) -> usize {
        (self.store.t_off[self.idx + 1] - self.store.t_off[self.idx]) as usize
    }

    /// Number of approvals in the trace.
    #[inline]
    pub fn approval_count(&self) -> usize {
        (self.store.a_off[self.idx + 1] - self.store.a_off[self.idx]) as usize
    }

    /// The transaction's transfer range as raw interned columns.
    #[inline]
    pub fn transfer_columns(&self) -> TransferColumns<'a> {
        let (lo, hi) =
            (self.store.t_off[self.idx] as usize, self.store.t_off[self.idx + 1] as usize);
        TransferColumns {
            asset: &self.store.t_asset[lo..hi],
            from: &self.store.t_from[lo..hi],
            to: &self.store.t_to[lo..hi],
            amount: &self.store.t_amount[lo..hi],
        }
    }

    /// The `i`-th transfer, materialized.
    pub fn transfer(&self, i: usize) -> Transfer {
        let base = self.store.t_off[self.idx] as usize;
        debug_assert!(i < self.transfer_count());
        let at = base + i;
        Transfer {
            asset: self.store.resolve_asset(self.store.t_asset[at]),
            from: self.store.resolve(self.store.t_from[at]),
            to: self.store.resolve(self.store.t_to[at]),
            amount: self.store.t_amount[at],
        }
    }

    /// Every transfer in execution order, materialized on the fly.
    pub fn transfers(
        &self,
    ) -> impl ExactSizeIterator<Item = Transfer> + DoubleEndedIterator + 'a {
        let view = *self;
        (0..self.transfer_count()).map(move |i| view.transfer(i))
    }

    /// Transfers whose source is `source` — the outgoing fund flow the
    /// profit-sharing classifier inspects.
    pub fn transfers_from(&self, source: Address) -> impl Iterator<Item = Transfer> + 'a {
        let view = *self;
        let source_id = self.store.addr_id(source);
        let cols = self.transfer_columns();
        (0..cols.from.len())
            .filter(move |&i| Some(cols.from[i]) == source_id)
            .map(move |i| view.transfer(i))
    }

    /// The transaction's approval range as raw interned columns.
    #[inline]
    pub fn approval_columns(&self) -> ApprovalColumns<'a> {
        let (lo, hi) =
            (self.store.a_off[self.idx] as usize, self.store.a_off[self.idx + 1] as usize);
        ApprovalColumns {
            token: &self.store.a_token[lo..hi],
            owner: &self.store.a_owner[lo..hi],
            spender: &self.store.a_spender[lo..hi],
            amount: &self.store.a_amount[lo..hi],
        }
    }

    /// The `i`-th approval, materialized.
    pub fn approval(&self, i: usize) -> Approval {
        let base = self.store.a_off[self.idx] as usize;
        debug_assert!(i < self.approval_count());
        let at = base + i;
        Approval {
            token: self.store.resolve(self.store.a_token[at]),
            owner: self.store.resolve(self.store.a_owner[at]),
            spender: self.store.resolve(self.store.a_spender[at]),
            amount: self.store.a_amount[at],
        }
    }

    /// Every approval, materialized on the fly.
    pub fn approvals(
        &self,
    ) -> impl ExactSizeIterator<Item = Approval> + DoubleEndedIterator + 'a {
        let view = *self;
        (0..self.approval_count()).map(move |i| view.approval(i))
    }

    /// Every address this transaction touches, sorted and deduped —
    /// the materialized-compat form of [`TxStore::touched_ids`].
    pub fn touched_addresses(&self) -> Vec<Address> {
        self.store
            .touched_ids(self.id())
            .into_iter()
            .map(|id| self.store.resolve(id))
            .collect()
    }

    /// Materializes the whole transaction.
    pub fn to_transaction(&self) -> Transaction {
        Transaction {
            id: self.id(),
            hash: self.hash(),
            block: self.block(),
            timestamp: self.timestamp(),
            from: self.from(),
            to: self.to(),
            value: self.value(),
            call: self.call(),
            transfers: self.transfers().collect(),
            approvals: self.approvals().collect(),
            created: self.created(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(n: u8) -> Address {
        Address::from_key_seed(&[n])
    }

    fn sample_tx(id: TxId) -> Transaction {
        Transaction {
            id,
            hash: H256([id as u8; 32]),
            block: 7,
            timestamp: 1_600_000_000 + id as u64,
            from: addr(1),
            to: Some(addr(2)),
            value: U256::from_u64(50),
            call: CallInfo::named(Some([9, 9, 9, 9]), "multicall"),
            transfers: vec![
                Transfer {
                    asset: Asset::Eth,
                    from: addr(1),
                    to: addr(2),
                    amount: U256::from_u64(50),
                },
                Transfer {
                    asset: Asset::Erc20(addr(5)),
                    from: addr(2),
                    to: addr(3),
                    amount: U256::from_u64(10),
                },
            ],
            approvals: vec![Approval {
                token: addr(5),
                owner: addr(1),
                spender: addr(2),
                amount: U256::MAX,
            }],
            created: None,
        }
    }

    #[test]
    fn round_trips_through_columns() {
        let txs = vec![sample_tx(0), sample_tx(1)];
        let store = TxStore::from_transactions(txs.clone());
        assert_eq!(store.len(), 2);
        for (i, tx) in txs.iter().enumerate() {
            assert_eq!(&store.to_transaction(i as TxId), tx);
        }
    }

    #[test]
    fn touched_ids_match_materialized_touched_addresses() {
        let tx = sample_tx(0);
        let store = TxStore::from_transactions(vec![tx.clone()]);
        let via_ids: Vec<Address> =
            store.touched_ids(0).into_iter().map(|id| store.resolve(id)).collect();
        let mut expected = tx.touched_addresses();
        // Ids sort in intern order, addresses in byte order — compare as
        // sets (both are deduped).
        let mut got = via_ids.clone();
        got.sort_unstable();
        expected.sort_unstable();
        assert_eq!(got, expected);
        assert_eq!(via_ids.len(), expected.len());
    }

    #[test]
    fn view_scalars_match() {
        let tx = sample_tx(0);
        let store = TxStore::from_transactions(vec![tx.clone()]);
        let v = store.view(0);
        assert_eq!(v.id(), 0);
        assert_eq!(v.hash(), tx.hash);
        assert_eq!(v.block(), tx.block);
        assert_eq!(v.timestamp(), tx.timestamp);
        assert_eq!(v.from(), tx.from);
        assert_eq!(v.to(), tx.to);
        assert_eq!(v.value(), tx.value);
        assert_eq!(v.selector(), tx.call.selector);
        assert_eq!(v.function(), tx.call.function.as_deref());
        assert_eq!(v.created(), tx.created);
        assert_eq!(v.transfer_count(), 2);
        assert_eq!(v.approval_count(), 1);
    }

    #[test]
    fn transfers_from_filters_by_source() {
        let store = TxStore::from_transactions(vec![sample_tx(0)]);
        let v = store.view(0);
        let outgoing: Vec<Transfer> = v.transfers_from(addr(2)).collect();
        assert_eq!(outgoing.len(), 1);
        assert_eq!(outgoing[0].to, addr(3));
        // Unknown source: no id, no transfers.
        assert_eq!(v.transfers_from(addr(99)).count(), 0);
    }

    #[test]
    fn transfer_columns_expose_interned_range() {
        let store = TxStore::from_transactions(vec![sample_tx(0), sample_tx(1)]);
        let cols = store.view(1).transfer_columns();
        assert_eq!(cols.from.len(), 2);
        assert_eq!(cols.asset[0], AssetRef::Eth);
        assert_eq!(store.resolve(cols.from[1]), addr(2));
        assert_eq!(cols.amount[1], U256::from_u64(10));
    }

    #[test]
    fn approval_columns_expose_interned_range() {
        let store = TxStore::from_transactions(vec![sample_tx(0), sample_tx(1)]);
        let cols = store.view(1).approval_columns();
        assert_eq!(cols.owner.len(), 1);
        assert_eq!(store.resolve(cols.token[0]), addr(5));
        assert_eq!(store.resolve(cols.owner[0]), addr(1));
        assert_eq!(store.resolve(cols.spender[0]), addr(2));
        assert_eq!(cols.amount[0], U256::MAX);
    }

    #[test]
    fn function_names_are_interned_once() {
        let store = TxStore::from_transactions(vec![sample_tx(0), sample_tx(1)]);
        assert_eq!(store.fn_names.len(), 1);
        assert_eq!(store.view(0).function(), Some("multicall"));
    }

    #[test]
    fn iteration_orders_match() {
        let txs = vec![sample_tx(0), sample_tx(1)];
        let store = TxStore::from_transactions(txs);
        let ids: Vec<TxId> = store.iter().map(|v| v.id()).collect();
        assert_eq!(ids, vec![0, 1]);
        assert_eq!(store.last().unwrap().id(), 1);
        assert_eq!((&store).into_iter().len(), 2);
    }

    #[test]
    fn hashes_are_derived_unless_supplied_otherwise() {
        let mut derived = sample_tx(0);
        derived.hash = tx_hash(0, derived.from, derived.to, derived.value, derived.timestamp);
        let supplied = sample_tx(1);
        let store = TxStore::from_transactions(vec![derived.clone(), supplied.clone()]);
        assert_eq!(store.hash_exceptions(), 1, "only the hand-picked hash is stored");
        assert_eq!(store.view(0).hash(), derived.hash);
        assert_eq!(store.view(1).hash(), supplied.hash);
        assert_eq!(store.to_transaction(1), supplied);
    }

    #[test]
    fn column_bytes_reports_every_column_group() {
        let store = TxStore::from_transactions(vec![sample_tx(0)]);
        let cols = store.column_bytes();
        let names: Vec<&str> = cols.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["scalars", "transfers", "approvals", "interner"]);
        assert!(cols.iter().all(|&(_, b)| b > 0));
    }
}
