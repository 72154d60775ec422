//! Online (streaming) dataset construction.
//!
//! The paper's collection ran continuously for 21 months; a deployed
//! pipeline does not re-run batch snowball sampling on every block.
//! [`OnlineDetector`] is the incremental equivalent: it keeps a cursor
//! into the chain, classifies new transactions as they confirm, admits
//! new profit-sharing contracts by the same seed-label and
//! guarded-expansion rules as [`crate::build_dataset`], and backfills a
//! newly admitted account's history so the maintained dataset converges
//! to exactly what the batch construction would produce.
//!
//! Membership and prior-contact state are keyed by interned
//! [`AddrId`]s, and each poll *batches* the member-contact probe: the
//! window's member-touching transactions are enumerated once from the
//! account-history index (a `partition_point` per member), so the
//! per-transaction loop only pays the full admissibility check for
//! transactions that can actually change the dataset — everything else
//! takes a seed-label-only fast path with zero membership probes.
//!
//! The poll-based shape (caller drives, detector returns the events
//! since the last poll) follows the workspace's event-driven style.

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

use daas_chain::{Chain, LabelStore, TxId};
use eth_types::{AddrId, Address, FxHashMap, FxHashSet};
use serde::{Deserialize, Serialize};

use crate::cache::ClassificationCache;
use crate::classify::PsObservation;
use crate::dataset::Dataset;
use crate::snowball::SnowballConfig;

/// How a contract entered the dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Admission {
    /// Publicly labeled as phishing (the step-1 seed rule).
    SeedLabel,
    /// Admitted by the guarded expansion rule (step 4).
    Expansion,
}

/// An event produced by [`OnlineDetector::poll`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum DetectorEvent {
    /// A new profit-sharing contract entered the dataset.
    ContractAdmitted {
        /// The contract.
        contract: Address,
        /// Which rule admitted it.
        via: Admission,
    },
    /// A new profit-sharing transaction was attributed (including
    /// backfilled history of a just-admitted contract).
    PsTransaction {
        /// The transaction.
        tx: TxId,
        /// Its contract.
        contract: Address,
    },
    /// A new operator account was observed.
    OperatorObserved(Address),
    /// A new affiliate account was observed.
    AffiliateObserved(Address),
}

/// The member-touching transactions of the current poll window, marked
/// once up front from the history index instead of probed per
/// transaction. Live only for the duration of one `poll_until` call.
#[derive(Debug, Clone)]
struct WindowMask {
    base: TxId,
    limit: TxId,
    mask: Vec<bool>,
}

impl WindowMask {
    /// Marks `member`'s window transactions at or after `from`.
    fn mark(&mut self, history: &[TxId], from: TxId) {
        let from = from.max(self.base);
        let lo = history.partition_point(|&t| t < from);
        for &t in &history[lo..] {
            if t >= self.limit {
                break;
            }
            self.mask[(t - self.base) as usize] = true;
        }
    }

    #[inline]
    fn marked(&self, txid: TxId) -> bool {
        self.mask[(txid - self.base) as usize]
    }
}

/// Serialized [`OnlineDetector`] state (DESIGN.md §13).
///
/// Every field is *address*-keyed: interned [`AddrId`]s are instance-
/// local to one chain arena and never appear in a checkpoint. On save,
/// ids are resolved to addresses; on restore, the (deterministically
/// rebuilt) chain re-interns them, so the restored detector is
/// byte-equivalent to the one that was checkpointed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectorCheckpoint {
    /// Transactions processed so far (exclusive upper bound).
    pub cursor: TxId,
    /// The maintained dataset at the cursor.
    pub dataset: Dataset,
    /// The first-contact index, resolved to addresses and sorted by
    /// address (the in-memory map is unordered; sorting makes
    /// checkpoint bytes deterministic).
    pub touch_min: Vec<(Address, TxId)>,
}

/// Incremental detector state.
#[derive(Debug, Clone)]
pub struct OnlineDetector {
    cfg: SnowballConfig,
    dataset: Dataset,
    cursor: TxId,
    cache: Arc<ClassificationCache>,
    /// For each interned address: the earliest confirmed transaction
    /// that touches both it and a *current* dataset member other than
    /// the address itself. This is the expansion guard's "prior dataset
    /// contact", maintained incrementally (as the cursor passes each
    /// transaction, and by a one-time history walk when a member joins)
    /// so the guard is an O(1) lookup instead of an O(history) rescan
    /// per candidate.
    touch_min: FxHashMap<AddrId, TxId>,
    /// Flat union of the dataset's contract/operator/affiliate sets as
    /// interned ids — the membership probe hashes 4 bytes. Maintained by
    /// [`Self::absorb_noting`], the only place the detector's dataset
    /// grows.
    members: FxHashSet<AddrId>,
    /// Present only while a poll is in flight (see [`WindowMask`]).
    window: Option<WindowMask>,
    /// Scratch buffer for touched-id extraction, reused across
    /// transactions.
    touched_scratch: Vec<AddrId>,
}

impl OnlineDetector {
    /// Creates a detector starting at the chain's first transaction.
    pub fn new(cfg: SnowballConfig) -> Self {
        Self::with_cache(cfg, Arc::new(ClassificationCache::new()))
    }

    /// Creates a detector sharing a classification cache — typically
    /// one warmed by a batch [`crate::build_dataset_with_cache`] run
    /// over the same chain, so polling skips re-classification. The
    /// cache must match `cfg.classifier`.
    pub fn with_cache(cfg: SnowballConfig, cache: Arc<ClassificationCache>) -> Self {
        OnlineDetector {
            cfg,
            dataset: Dataset::default(),
            cursor: 0,
            cache,
            touch_min: FxHashMap::default(),
            members: FxHashSet::default(),
            window: None,
            touched_scratch: Vec::new(),
        }
    }

    /// The dataset maintained so far.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// Exports the detector's full live state as an address-keyed
    /// checkpoint. Never call mid-poll (the window mask is transient
    /// poll state); between polls the mask is absent and the detector
    /// is exactly (cursor, dataset, touch_min) — the member set is the
    /// interned union of the dataset's role sets and is rebuilt on
    /// restore rather than serialized.
    pub fn checkpoint(&self, chain: &Chain) -> DetectorCheckpoint {
        debug_assert!(self.window.is_none(), "checkpoint taken mid-poll");
        let mut touch_min: Vec<(Address, TxId)> = self
            .touch_min
            .iter()
            .map(|(&id, &tx)| (chain.resolve_addr(id), tx))
            .collect();
        touch_min.sort_unstable();
        DetectorCheckpoint { cursor: self.cursor, dataset: self.dataset.clone(), touch_min }
    }

    /// Rebuilds a detector from a checkpoint against a chain that must
    /// be (a deterministic rebuild of) the chain the checkpoint was
    /// taken on — every address in the checkpoint re-interns to the id
    /// it had, so the restored state is byte-equivalent. `cfg` and
    /// `cache` follow the same contract as [`Self::with_cache`].
    pub fn restore(
        cfg: SnowballConfig,
        cache: Arc<ClassificationCache>,
        chain: &Chain,
        ckpt: &DetectorCheckpoint,
    ) -> Result<Self, String> {
        let mut detector = Self::with_cache(cfg, cache);
        detector.cursor = ckpt.cursor;
        detector.dataset = ckpt.dataset.clone();
        for (addr, tx) in &ckpt.touch_min {
            let id = chain
                .addr_id(*addr)
                .ok_or_else(|| format!("checkpoint address {addr} is not interned"))?;
            detector.touch_min.insert(id, *tx);
        }
        // Members are exactly the interned union of the role sets (the
        // only writer is `absorb_noting`, which inserts every role
        // address the chain has interned).
        let roles = ckpt
            .dataset
            .contracts
            .iter()
            .chain(&ckpt.dataset.operators)
            .chain(&ckpt.dataset.affiliates);
        for &addr in roles {
            if let Some(id) = chain.addr_id(addr) {
                detector.members.insert(id);
            }
        }
        Ok(detector)
    }

    /// Transactions processed so far.
    pub fn cursor(&self) -> TxId {
        self.cursor
    }

    /// Processes every transaction confirmed since the last poll.
    /// Returns the events, in admission order.
    pub fn poll(&mut self, chain: &Chain, labels: &LabelStore) -> Vec<DetectorEvent> {
        self.poll_until(chain, labels, chain.transactions().len() as TxId)
    }

    /// Processes transactions up to (exclusive) `limit` — lets callers
    /// simulate block-by-block delivery.
    pub fn poll_until(
        &mut self,
        chain: &Chain,
        labels: &LabelStore,
        limit: TxId,
    ) -> Vec<DetectorEvent> {
        let limit = limit.min(chain.transactions().len() as TxId);
        let _poll_span =
            daas_obs::span!("detector.poll", from = self.cursor, to = limit);
        let mut events = Vec::new();
        if self.cursor < limit {
            let base = self.cursor;
            let window = (limit - base) as usize;
            // Batch the membership probe when the window is large enough
            // to amortise it: one history `partition_point` per member
            // marks every member-touching transaction up front. For tiny
            // windows over a big member set (block-by-block delivery
            // late in a run) the per-tx probe is cheaper — fall through
            // with no mask and probe inline.
            if self.members.len() <= window.saturating_mul(4) {
                let mut win = WindowMask { base, limit, mask: vec![false; window] };
                for &m in self.members.iter() {
                    win.mark(chain.txs_of_id(m), base);
                }
                self.window = Some(win);
            }
            let store = chain.transactions();
            let mut scratch = std::mem::take(&mut self.touched_scratch);
            while self.cursor < limit {
                let txid = self.cursor;
                self.cursor += 1;
                // With a mask: unmarked transactions touch no member, so
                // only the seed rule can apply — check the public flag
                // and skip all membership work otherwise.
                let marked = self.window.as_ref().is_none_or(|w| w.marked(txid));
                if !marked {
                    let Some(to_id) = store.view(txid).to_id().get() else { continue };
                    let to = store.resolve(to_id);
                    if !(labels.publicly_flagged(to) && chain.is_contract(to)) {
                        continue;
                    }
                }
                store.touched_ids_into(txid, &mut scratch);
                self.step_tx(chain, labels, txid, &scratch, &mut events);
                // Index this transaction's dataset contacts *after* its
                // own admission decision — the guard requires a contact
                // strictly before the surfacing transaction.
                self.note_tx(txid, &scratch);
            }
            self.touched_scratch = scratch;
            self.window = None;
        }
        daas_obs::add("detector.events", events.len() as u64);
        events
    }

    /// One transaction's classification + admission decision.
    fn step_tx(
        &mut self,
        chain: &Chain,
        labels: &LabelStore,
        txid: TxId,
        touched: &[AddrId],
        events: &mut Vec<DetectorEvent>,
    ) {
        // Pre-filter before paying for classification: the classifier's
        // contract is always `tx.to`, so every admission path is
        // decidable up front — absorb needs a known contract, expansion
        // needs a touched member besides the contract plus the O(1)
        // prior-contact guard, seed needs a public flag. Anything else
        // cannot change the dataset regardless of the verdict.
        let Some(to_id) = chain.tx(txid).to_id().get() else { return };
        let to = chain.resolve_addr(to_id);
        let admissible = self.dataset.contracts.contains(&to)
            || (touched.iter().any(|&a| a != to_id && self.members.contains(&a))
                && (!self.cfg.expansion_guard || self.prior_contact_id(to_id, txid)))
            || (labels.publicly_flagged(to) && chain.is_contract(to));
        if !admissible {
            return;
        }
        let Some(obs) = self.cache.classify(chain, txid, &self.cfg.classifier) else {
            return;
        };
        let contract = obs.contract;

        if self.dataset.contracts.contains(&contract) {
            self.absorb_and_backfill(chain, &obs, events);
            return;
        }

        // Seed rule: the contract is publicly labeled as phishing.
        let seed = labels.publicly_flagged(contract) && chain.is_contract(contract);
        // Expansion rule: the transaction touches an account already
        // in the dataset, and the contract has a *prior* interaction
        // with the dataset (identical to the batch guard).
        let expansion = !seed && {
            let contract_id = chain.addr_id(contract);
            let touches_dataset = touched
                .iter()
                .any(|&a| Some(a) != contract_id && self.members.contains(&a));
            touches_dataset
                && (!self.cfg.expansion_guard || self.prior_contact(chain, contract, txid))
        };
        if !(seed || expansion) {
            return;
        }

        events.push(DetectorEvent::ContractAdmitted {
            contract,
            via: if seed { Admission::SeedLabel } else { Admission::Expansion },
        });
        self.absorb_and_backfill(chain, &obs, events);
        // Backfill the contract's own earlier history (step 2 on the
        // just-admitted contract), bounded by what has confirmed.
        self.backfill_account(chain, contract, &mut *events);
    }

    /// The expansion guard: has the interned contract a dataset contact
    /// strictly before `surfacing_tx`, against the *current* dataset?
    /// O(1) via the incrementally maintained first-contact index.
    fn prior_contact_id(&self, contract: AddrId, surfacing_tx: TxId) -> bool {
        self.touch_min.get(&contract).is_some_and(|&t| t < surfacing_tx)
    }

    /// [`Self::prior_contact_id`] from an address (an address the chain
    /// has never interned can have no contacts at all).
    fn prior_contact(&self, chain: &Chain, contract: Address, surfacing_tx: TxId) -> bool {
        chain.addr_id(contract).is_some_and(|id| self.prior_contact_id(id, surfacing_tx))
    }

    /// Records `txid` as a dataset contact for every address it touches
    /// alongside a current member (rule 1 of the index: transactions are
    /// indexed once, as the cursor passes them).
    fn note_tx(&mut self, txid: TxId, touched: &[AddrId]) {
        let members = touched.iter().filter(|a| self.members.contains(a)).count();
        if members == 0 {
            return;
        }
        for &a in touched {
            // `a` needs a member *other than itself* in the same tx.
            if members > 1 || !self.members.contains(&a) {
                self.note_touch(a, txid);
            }
        }
    }

    /// A new dataset member: every already-confirmed transaction in its
    /// history becomes a dataset contact for the other parties (rule 2
    /// of the index: one bounded walk per join covers the member's past;
    /// rule 1 covers its future). Mid-poll, the member's *upcoming*
    /// window transactions are marked too, so the batched mask stays an
    /// over-approximation of "touches a member".
    fn note_member(&mut self, chain: &Chain, member: AddrId) {
        let store = chain.transactions();
        let history = chain.txs_of_id(member);
        let confirmed = &history[..history.partition_point(|&id| id < self.cursor)];
        let mut scratch = Vec::new();
        for &txid in confirmed {
            store.touched_ids_into(txid, &mut scratch);
            for &a in &scratch {
                if a != member {
                    self.note_touch(a, txid);
                }
            }
        }
        if let Some(win) = self.window.as_mut() {
            win.mark(history, self.cursor);
        }
    }

    fn note_touch(&mut self, addr: AddrId, txid: TxId) {
        let slot = self.touch_min.entry(addr).or_insert(txid);
        if *slot > txid {
            *slot = txid;
        }
    }

    /// [`Dataset::absorb`] plus first-contact index maintenance for any
    /// member the observation introduced.
    fn absorb_noting(&mut self, chain: &Chain, obs: &PsObservation) -> bool {
        let (c, o, a) = (obs.contract, obs.operator, obs.affiliate);
        let new_c = !self.dataset.contracts.contains(&c);
        let new_o = !self.dataset.operators.contains(&o);
        let new_a = !self.dataset.affiliates.contains(&a);
        if !self.dataset.absorb_ref(obs) {
            return false;
        }
        for (is_new, addr) in [(new_c, c), (new_o, o), (new_a, a)] {
            if !is_new {
                continue;
            }
            // Members come from a classified transaction, so the chain
            // has interned them.
            if let Some(id) = chain.addr_id(addr) {
                self.members.insert(id);
                self.note_member(chain, id);
            }
        }
        true
    }

    /// Absorbs one observation, emitting role events, and backfills the
    /// histories of any newly seen operators/affiliates (the streaming
    /// equivalent of the batch fixpoint).
    fn absorb_and_backfill(
        &mut self,
        chain: &Chain,
        obs: &PsObservation,
        events: &mut Vec<DetectorEvent>,
    ) {
        let mut queue: VecDeque<Address> = VecDeque::new();
        let (tx, contract, op, aff) = (obs.tx, obs.contract, obs.operator, obs.affiliate);
        let new_op = !self.dataset.operators.contains(&op);
        let new_aff = !self.dataset.affiliates.contains(&aff);
        if !self.absorb_noting(chain, obs) {
            return;
        }
        events.push(DetectorEvent::PsTransaction { tx, contract });
        if new_op {
            events.push(DetectorEvent::OperatorObserved(op));
            queue.push_back(op);
        }
        if new_aff {
            events.push(DetectorEvent::AffiliateObserved(aff));
            queue.push_back(aff);
        }
        let mut seen: HashSet<Address> = queue.iter().copied().collect();
        while let Some(account) = queue.pop_front() {
            let new_members = self.scan_account(chain, account, events);
            for member in new_members {
                if seen.insert(member) {
                    queue.push_back(member);
                }
            }
        }
    }

    /// Scans an account's *confirmed* history (up to the cursor) for
    /// profit-sharing transactions, admitting new contracts by the
    /// expansion rule. Returns newly observed operator/affiliate
    /// accounts.
    fn scan_account(
        &mut self,
        chain: &Chain,
        account: Address,
        events: &mut Vec<DetectorEvent>,
    ) -> Vec<Address> {
        let mut new_members = Vec::new();
        let history: Vec<TxId> = chain
            .txs_of(account)
            .iter()
            .copied()
            .filter(|&id| id < self.cursor)
            .collect();
        for txid in history {
            let Some(obs) = self.cache.classify(chain, txid, &self.cfg.classifier) else {
                continue;
            };
            let contract = obs.contract;
            let known = self.dataset.contracts.contains(&contract);
            if !known {
                let guard_ok =
                    !self.cfg.expansion_guard || self.prior_contact(chain, contract, txid);
                if !guard_ok {
                    continue;
                }
                events.push(DetectorEvent::ContractAdmitted {
                    contract,
                    via: Admission::Expansion,
                });
            }
            let (op, aff) = (obs.operator, obs.affiliate);
            let new_op = !self.dataset.operators.contains(&op);
            let new_aff = !self.dataset.affiliates.contains(&aff);
            if self.absorb_noting(chain, &obs) {
                events.push(DetectorEvent::PsTransaction { tx: txid, contract });
                if new_op {
                    events.push(DetectorEvent::OperatorObserved(op));
                    new_members.push(op);
                }
                if new_aff {
                    events.push(DetectorEvent::AffiliateObserved(aff));
                    new_members.push(aff);
                }
            }
            if !known {
                // New contract: sweep its own confirmed history too.
                let more = self.backfill_account_collect(chain, contract, events);
                new_members.extend(more);
            }
        }
        new_members
    }

    fn backfill_account(
        &mut self,
        chain: &Chain,
        account: Address,
        events: &mut Vec<DetectorEvent>,
    ) {
        let mut queue: VecDeque<Address> = VecDeque::from([account]);
        let mut seen: HashSet<Address> = queue.iter().copied().collect();
        while let Some(acc) = queue.pop_front() {
            for member in self.scan_account(chain, acc, events) {
                if seen.insert(member) {
                    queue.push_back(member);
                }
            }
        }
    }

    fn backfill_account_collect(
        &mut self,
        chain: &Chain,
        account: Address,
        events: &mut Vec<DetectorEvent>,
    ) -> Vec<Address> {
        self.scan_account(chain, account, events)
    }
}
