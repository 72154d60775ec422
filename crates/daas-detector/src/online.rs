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
//! Membership is keyed by interned [`AddrId`]s: one role byte per
//! interned address says which of the dataset's three role sets hold
//! it, so the admission checks and the absorb path read the verdict
//! table's role ids against it and touch the public [`Dataset`]'s
//! address sets only when a role is new. A poll reads each
//! transaction's verdict once; only a positive goes further. The
//! expansion guard is the batch walk's own check
//! (`snowball::previously_interacted`), evaluated against the role
//! bytes at the moment of the check, so the detector keeps no derived
//! contact state: everything it holds is a function of the chain prefix
//! below its cursor, and an engine checkpoint records only the cursor.
//!
//! The poll-based shape (caller drives, detector returns the events
//! since the last poll) follows the workspace's event-driven style.

use std::collections::VecDeque;
use std::sync::Arc;

use daas_chain::{Chain, LabelStore, TxId};
use eth_types::{AddrId, Address, FxHashSet};
use serde::{Deserialize, Serialize};

use crate::cache::{ClassificationCache, Verdicts};
use crate::classify::Positive;
use crate::dataset::Dataset;
use crate::snowball::{previously_interacted, SnowballConfig, AFFILIATE, CONTRACT, OPERATOR};

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

/// Incremental detector state.
#[derive(Debug, Clone)]
pub struct OnlineDetector {
    cfg: SnowballConfig,
    dataset: Dataset,
    cursor: TxId,
    cache: Arc<ClassificationCache>,
    /// One byte per interned address: which of the dataset's role sets
    /// hold it ([`CONTRACT`], [`OPERATOR`], [`AFFILIATE`]); nonzero is
    /// membership. Sized to the interner at each poll, and written only
    /// by [`Self::absorb`], the one place the detector's dataset grows.
    roles: Vec<u8>,
    /// Scratch buffer for touched-id reads (a surfacing transaction's
    /// and the guard's), reused across checks.
    touched: Vec<AddrId>,
}

impl OnlineDetector {
    /// Creates a detector starting at the chain's first transaction.
    pub fn new(cfg: SnowballConfig) -> Self {
        Self::with_cache(cfg, Arc::new(ClassificationCache::new()))
    }

    /// Creates a detector sharing a classification table with the
    /// clusterer, live measurement or a batch
    /// [`crate::build_dataset_with_cache`] run over the same chain, so
    /// no transaction is classified twice. The table must match
    /// `cfg.classifier`.
    pub fn with_cache(cfg: SnowballConfig, cache: Arc<ClassificationCache>) -> Self {
        OnlineDetector {
            cfg,
            dataset: Dataset::default(),
            cursor: 0,
            cache,
            roles: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// The dataset maintained so far.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// Grows the role bytes to the chain's interner (the chain may have
    /// grown since the last poll).
    fn size_roles(&mut self, chain: &Chain) {
        let interned = chain.transactions().interner().len();
        if self.roles.len() < interned {
            self.roles.resize(interned, 0);
        }
    }

    #[inline]
    fn is_member(&self, id: AddrId) -> bool {
        self.roles[id.index()] != 0
    }

    #[inline]
    fn has_role(&self, id: AddrId, bit: u8) -> bool {
        self.roles[id.index()] & bit != 0
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
        self.size_roles(chain);
        if self.cursor < limit {
            // Every verdict this poll reads lies below `limit`: fill the
            // window's once, up front, and never look past it.
            {
                let _span = daas_obs::span!(
                    "detector.classify",
                    txs = (limit as usize).saturating_sub(self.cache.len())
                );
                self.cache.fill(chain, &self.cfg.classifier, limit);
            }
            // A local handle, so the verdicts do not borrow `self`.
            let cache = Arc::clone(&self.cache);
            let verdicts = cache.read();
            while self.cursor < limit {
                let txid = self.cursor;
                self.cursor += 1;
                // The verdict is a four-byte read; most transactions
                // stop here.
                if let Some(positive) = verdicts.get(txid) {
                    self.step_tx(chain, labels, &verdicts, positive, &mut events);
                }
            }
        }
        daas_obs::add("detector.events", events.len() as u64);
        events
    }

    /// One positive's admission decision.
    fn step_tx(
        &mut self,
        chain: &Chain,
        labels: &LabelStore,
        verdicts: &Verdicts<'_>,
        positive: &Positive,
        events: &mut Vec<DetectorEvent>,
    ) {
        // The classifier's contract is always `tx.to`, so every admission
        // path is decidable from it — absorb needs a known contract, seed
        // needs a public flag, expansion needs a touched member besides
        // the contract plus the guard. Anything else cannot change the
        // dataset.
        let contract_id = positive.contract;
        if self.has_role(contract_id, CONTRACT) {
            self.absorb_and_backfill(chain, verdicts, positive, events);
            return;
        }

        // Seed rule: the contract is publicly labeled as phishing.
        let contract = chain.resolve_addr(contract_id);
        let seed = labels.publicly_flagged(contract) && chain.is_contract(contract);
        if !seed && !self.expands(chain, contract_id, positive.tx) {
            return;
        }

        events.push(DetectorEvent::ContractAdmitted {
            contract,
            via: if seed { Admission::SeedLabel } else { Admission::Expansion },
        });
        self.absorb_and_backfill(chain, verdicts, positive, events);
        // Backfill the contract's own earlier history (step 2 on the
        // just-admitted contract), bounded by what has confirmed.
        self.backfill(chain, verdicts, VecDeque::from([contract_id]), events);
    }

    /// The expansion rule for a non-member contract surfaced by `txid`:
    /// the transaction touches an account already in the dataset other
    /// than the contract, and the contract passes the guard.
    fn expands(&mut self, chain: &Chain, contract: AddrId, txid: TxId) -> bool {
        chain.transactions().touched_ids_into(txid, &mut self.touched);
        self.touched.iter().any(|&a| a != contract && self.is_member(a))
            && self.guard(chain, contract, txid)
    }

    /// The step-4 guard, unless disabled: the batch walk's check against
    /// the current role bytes. Every caller's `txid` touches a member
    /// other than the contract, so after one failed check it is a
    /// contact for every later check on the same contract: each
    /// contract's history prefix is walked about twice at most.
    fn guard(&mut self, chain: &Chain, contract: AddrId, txid: TxId) -> bool {
        !self.cfg.expansion_guard
            || previously_interacted(chain, &self.roles, contract, txid, &mut self.touched)
    }

    /// Absorbs one positive into the dataset, unless its transaction is
    /// already in: materializes its observation once and adds each role
    /// the role bytes do not hold yet to the role bytes and its dataset
    /// set. Returns whether the transaction was new.
    fn absorb(&mut self, chain: &Chain, positive: &Positive) -> bool {
        if !self.dataset.ps_txs.insert(positive.tx) {
            return false;
        }
        let obs = positive.observation(chain.transactions());
        let ds = &mut self.dataset;
        for (id, bit, addr, set) in [
            (positive.contract, CONTRACT, obs.contract, &mut ds.contracts),
            (positive.operator, OPERATOR, obs.operator, &mut ds.operators),
            (positive.affiliate, AFFILIATE, obs.affiliate, &mut ds.affiliates),
        ] {
            let role = &mut self.roles[id.index()];
            if *role & bit == 0 {
                *role |= bit;
                set.insert(addr);
            }
        }
        ds.observations.push(obs);
        true
    }

    /// Absorbs one positive, emitting role events, and backfills the
    /// histories of any newly seen operators/affiliates (the streaming
    /// equivalent of the batch fixpoint).
    fn absorb_and_backfill(
        &mut self,
        chain: &Chain,
        verdicts: &Verdicts<'_>,
        positive: &Positive,
        events: &mut Vec<DetectorEvent>,
    ) {
        let (op, aff) = (positive.operator, positive.affiliate);
        let new_op = !self.has_role(op, OPERATOR);
        let new_aff = !self.has_role(aff, AFFILIATE);
        if !self.absorb(chain, positive) {
            return;
        }
        let contract = chain.resolve_addr(positive.contract);
        events.push(DetectorEvent::PsTransaction { tx: positive.tx, contract });
        let mut queue: VecDeque<AddrId> = VecDeque::new();
        if new_op {
            events.push(DetectorEvent::OperatorObserved(chain.resolve_addr(op)));
            queue.push_back(op);
        }
        if new_aff {
            events.push(DetectorEvent::AffiliateObserved(chain.resolve_addr(aff)));
            queue.push_back(aff);
        }
        self.backfill(chain, verdicts, queue, events);
    }

    /// Scans an account's *confirmed* history (up to the cursor) for
    /// profit-sharing transactions, admitting new contracts by the
    /// expansion rule. Returns newly observed operator/affiliate
    /// accounts.
    fn scan_account(
        &mut self,
        chain: &Chain,
        verdicts: &Verdicts<'_>,
        account: AddrId,
        events: &mut Vec<DetectorEvent>,
    ) -> Vec<AddrId> {
        let mut new_members = Vec::new();
        let history = chain.txs_of_id(account);
        for &txid in &history[..history.partition_point(|&id| id < self.cursor)] {
            let Some(positive) = verdicts.get(txid) else { continue };
            let contract_id = positive.contract;
            let known = self.has_role(contract_id, CONTRACT);
            let contract = chain.resolve_addr(contract_id);
            if !known {
                // `txid` touches `account`, a member other than the
                // contract: only the guard is left to decide.
                if !self.guard(chain, contract_id, txid) {
                    continue;
                }
                events.push(DetectorEvent::ContractAdmitted {
                    contract,
                    via: Admission::Expansion,
                });
            }
            let (op, aff) = (positive.operator, positive.affiliate);
            let new_op = !self.has_role(op, OPERATOR);
            let new_aff = !self.has_role(aff, AFFILIATE);
            if self.absorb(chain, positive) {
                events.push(DetectorEvent::PsTransaction { tx: txid, contract });
                if new_op {
                    events.push(DetectorEvent::OperatorObserved(chain.resolve_addr(op)));
                    new_members.push(op);
                }
                if new_aff {
                    events.push(DetectorEvent::AffiliateObserved(chain.resolve_addr(aff)));
                    new_members.push(aff);
                }
            }
            if !known {
                // New contract: sweep its own confirmed history too.
                let more = self.scan_account(chain, verdicts, contract_id, events);
                new_members.extend(more);
            }
        }
        new_members
    }

    /// Scans the confirmed histories of the queued accounts and,
    /// breadth-first, of every operator or affiliate the scans observe.
    fn backfill(
        &mut self,
        chain: &Chain,
        verdicts: &Verdicts<'_>,
        mut queue: VecDeque<AddrId>,
        events: &mut Vec<DetectorEvent>,
    ) {
        let mut seen: FxHashSet<AddrId> = queue.iter().copied().collect();
        while let Some(account) = queue.pop_front() {
            for member in self.scan_account(chain, verdicts, account, events) {
                if seen.insert(member) {
                    queue.push_back(member);
                }
            }
        }
    }
}
