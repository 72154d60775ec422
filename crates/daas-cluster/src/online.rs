//! Streaming §7.1 clustering: families maintained per poll.
//!
//! [`OnlineClusterer`] consumes the [`DetectorEvent`] feed of
//! [`daas_detector::OnlineDetector`] and keeps the operator partition
//! and family membership incremental, so a deployed observatory updates
//! families per block window instead of re-clustering the chain from
//! scratch (DESIGN.md §10). At every poll boundary
//! [`OnlineClusterer::clustering`] is byte-identical to the batch
//! oracle [`crate::cluster_prefix`] run at the same watermark.
//!
//! ## O(delta) state on interned ids
//!
//! The retained state is keyed by the chain's interned [`AddrId`]s on
//! plain Fx-hashed maps and explicit per-component records, so a window
//! update touches only what the window changed and a probe hashes four
//! bytes:
//!
//! * **Marks.** One byte per interned address says whether it is an
//!   admitted operator, a dataset member (a role some event of this or
//!   an earlier poll names, so the post-poll dataset) or an
//!   explorer-labelled phishing account. The scans of operator
//!   transactions check each touched id against it, as the batch
//!   extract (`families.rs`) does.
//! * **Components.** Instead of a global union-find that must be
//!   re-partitioned per snapshot, each component is an explicit
//!   [`CompState`] keyed by a stable integer id, carrying its members,
//!   its internal edges, its phish-touch accounts and its assigned
//!   contracts/affiliates. Edges merge components by relabeling the
//!   smaller side (weighted union), so total relabel work is
//!   O(n log n) across the stream.
//! * **Vote assignment.** Contract/affiliate → family assignment (batch
//!   step 2) is cached in `target_assign` and re-voted only for *dirty*
//!   targets: those with a new vote from outside the component that
//!   holds them (a vote from the holder only widens its lead; a first
//!   vote, or one from an operator not yet admitted, has no holder to
//!   match), those voting in a component whose key or membership
//!   changed, and those assigned to a split component. A target's votes
//!   are kept as distinct (operator, count) pairs, read from the verdict
//!   table's role ids, so a re-vote reads one entry per voter however
//!   many transactions the target has. An `op_votes` reverse index makes
//!   the dirty set computable from the merge delta.
//! * **Revocation.** A phish-touch chain becomes invalid the moment the
//!   touched account itself joins the dataset (the batch rule excludes
//!   dataset members). Only the owning component is re-partitioned —
//!   a *scoped* rebuild over its own edges — instead of the historical
//!   full union-find rebuild; `stats().rebuilds` counts these scoped
//!   events.
//! * **Family cache.** Assembled families are `Arc`-shared per
//!   component id. A snapshot re-votes the dirty targets and serves
//!   every family as an `Arc` clone of its cached assembly, except
//!   that a component which only *grew* — new profit-sharing
//!   transactions, or contracts and affiliates the re-vote assigned to
//!   it — has the sorted additions merged into its cached family
//!   (`stats().families_patched`), and a *structurally* dirty one —
//!   merged, split, new, or having lost a target — is re-assembled
//!   (`families_assembled`). An idle snapshot allocates nothing; a
//!   patch whose family the previous epoch still holds copies that one
//!   family (`Arc::make_mut`).
//!
//! Ids follow first-intern order, so wherever an order reaches the
//! output the addresses are compared instead: a component's key is its
//! smallest member address, the vote tie-break compares keys, and the
//! family lists are sorted by address on assembly. None of this state
//! is shared with a reader — a published snapshot holds only the
//! `Arc<Family>` values — and none of it is checkpointed: whatever the
//! ingest history, the snapshot at a boundary is `cluster_prefix` at
//! that watermark, so an engine restore rebuilds the clusterer by
//! ingesting the replayed stream in one poll.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use daas_chain::{Chain, LabelStore, TxId};
use daas_detector::{ClassificationCache, ClassifierConfig, DetectorEvent};
use eth_types::{AddrId, Address, FxHashMap, FxHashSet};
use txgraph::UnionFind;

use crate::families::{family_name, is_labeled_phishing, vote_winner, Clustering, Family};

/// Counters describing how much incremental work the clusterer did —
/// the observable evidence that snapshots reuse prior state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OnlineClustererStats {
    /// Component merges (edges that actually joined two components).
    pub merges: usize,
    /// Distinct edges retained (direct + phish-touch).
    pub edges: usize,
    /// Scoped component rebuilds forced by phish-touch revocations.
    /// Each counts one affected component re-partitioned over its own
    /// edges — never a full rebuild of the whole state.
    pub rebuilds: usize,
    /// Families served from the assembly cache across all snapshots.
    pub families_reused: usize,
    /// Families (re-)assembled across all snapshots.
    pub families_assembled: usize,
    /// Cached families updated in place by a sorted merge of new
    /// transactions, contracts and affiliates (the component only grew,
    /// so no re-assembly).
    pub families_patched: usize,
}

/// Stable component id. Ids are never reused; a split allocates fresh
/// ids for every part so stale references are detectable.
type Cid = u64;

/// One live component: the unit of scoped rebuilds and family-assembly
/// caching.
#[derive(Debug, Clone)]
struct CompState {
    /// Smallest member address — the batch tie-break key (batch
    /// components are sorted by smallest member, so smaller index ⟺
    /// smaller key).
    key: Address,
    /// Member operators, unsorted (sorted by address on assembly only).
    members: Vec<AddrId>,
    /// Direct operator↔operator edges with both endpoints inside,
    /// normalized (min, max). Replayed on scoped rebuild.
    edges: Vec<(AddrId, AddrId)>,
    /// Labeled-phish accounts whose touch chains live in this
    /// component (a touch set always merges into one component).
    phish: BTreeSet<AddrId>,
    /// Contracts currently vote-assigned to this component.
    contracts: BTreeSet<AddrId>,
    /// Affiliates currently vote-assigned to this component.
    affiliates: BTreeSet<AddrId>,
}

impl CompState {
    /// The assigned set of one target kind.
    fn assigned(&mut self, kind: u8) -> &mut BTreeSet<AddrId> {
        if kind == T_CONTRACT {
            &mut self.contracts
        } else {
            &mut self.affiliates
        }
    }
}

/// A vote target: (0, contract) or (1, affiliate).
type Target = (u8, AddrId);

const T_CONTRACT: u8 = 0;
const T_AFFILIATE: u8 = 1;

/// A target's votes: each distinct operator that cast one, with how many.
type Voters = Vec<(AddrId, u32)>;

/// Mark bit of an admitted operator.
const OPERATOR: u8 = 1;
/// Mark bit of a dataset member (contract, operator or affiliate).
const MEMBER: u8 = 2;
/// Mark bit of an account carrying an explorer phishing or
/// drainer-family label.
const PHISH: u8 = 4;

/// Incremental §7.1 clusterer. See the module docs for the invariants.
#[derive(Debug, Clone)]
pub struct OnlineClusterer {
    classifier: ClassifierConfig,
    cache: Arc<ClassificationCache>,
    watermark: TxId,
    /// [`OPERATOR`], [`MEMBER`] and [`PHISH`] bits per interned address,
    /// sized to the interner at each ingest.
    marks: Vec<u8>,
    /// Admitted operators, in admission order (the window scan's list).
    operators: Vec<AddrId>,
    next_cid: Cid,
    comps: FxHashMap<Cid, CompState>,
    /// Operator → owning component.
    op_comp: FxHashMap<AddrId, Cid>,
    /// Normalized (min, max) direct edges, global dedup.
    direct_edges: FxHashSet<(AddrId, AddrId)>,
    /// Labeled-phish account → operators that touched it. Entries are
    /// revoked (and the owning component rebuilt) when the account
    /// joins the dataset.
    phish_touch: FxHashMap<AddrId, BTreeSet<AddrId>>,
    /// Each target kind's voters (batch step 2), indexed by kind.
    votes: [FxHashMap<AddrId, Voters>; 2],
    /// Profit-sharing transactions per contract, sorted.
    contract_txs: FxHashMap<AddrId, Vec<TxId>>,
    /// Operator → targets it voted for (the reverse index that turns a
    /// merge delta into a dirty-target set).
    op_votes: FxHashMap<AddrId, Vec<Target>>,
    /// Target → component it is currently assigned to. Invariant: the
    /// component is live and lists the target in its assigned sets.
    target_assign: FxHashMap<Target, Cid>,
    /// Assembled families per component id.
    assembled: FxHashMap<Cid, Arc<Family>>,
    /// Targets owed a re-vote: those whose vote inputs changed since the
    /// last snapshot in a way that can move them. Invariant: every other
    /// target is assigned to the winner of its current votes.
    dirty_targets: FxHashSet<Target>,
    /// Components whose cached assembly is invalid.
    dirty_comps: BTreeSet<Cid>,
    /// New (contract, tx) attributions since the last snapshot — spliced
    /// into the owning component's cached family when nothing else about
    /// the component changed.
    txs_new: Vec<(AddrId, TxId)>,
    /// Components owed a scoped rebuild, drained at end of ingest.
    pending_rebuild: BTreeSet<Cid>,
    stats: OnlineClustererStats,
}

impl OnlineClusterer {
    /// Creates a clusterer with its own classification table.
    pub fn new(classifier: ClassifierConfig) -> Self {
        Self::with_cache(classifier, Arc::new(ClassificationCache::new()))
    }

    /// Creates a clusterer sharing a classification table — in live mode
    /// the same [`Arc`] backs the detector, the clusterer and the final
    /// batch re-verification, so no transaction is classified twice. The
    /// table must match `classifier`.
    pub fn with_cache(classifier: ClassifierConfig, cache: Arc<ClassificationCache>) -> Self {
        OnlineClusterer {
            classifier,
            cache,
            watermark: 0,
            marks: Vec::new(),
            operators: Vec::new(),
            next_cid: 0,
            comps: FxHashMap::default(),
            op_comp: FxHashMap::default(),
            direct_edges: FxHashSet::default(),
            phish_touch: FxHashMap::default(),
            votes: Default::default(),
            contract_txs: FxHashMap::default(),
            op_votes: FxHashMap::default(),
            target_assign: FxHashMap::default(),
            assembled: FxHashMap::default(),
            dirty_targets: FxHashSet::default(),
            dirty_comps: BTreeSet::new(),
            txs_new: Vec::new(),
            pending_rebuild: BTreeSet::new(),
            stats: OnlineClustererStats::default(),
        }
    }

    /// Transactions ingested so far (exclusive upper bound).
    pub fn watermark(&self) -> TxId {
        self.watermark
    }

    /// Incremental-work counters.
    pub fn stats(&self) -> OnlineClustererStats {
        self.stats
    }

    /// Grows the marks to the chain's interner, marking every interned
    /// account with an explorer phishing label. The labels never change
    /// between ingests, but the chain may have grown.
    fn size_marks(&mut self, chain: &Chain, labels: &LabelStore) {
        let interned = chain.transactions().interner().len();
        if self.marks.len() >= interned {
            return;
        }
        self.marks.resize(interned, 0);
        for address in labels.addresses() {
            if is_labeled_phishing(labels, address) {
                if let Some(id) = chain.addr_id(address) {
                    self.marks[id.index()] |= PHISH;
                }
            }
        }
    }

    /// Counts one vote of `op` for `t`, indexing a first vote in
    /// `op_votes`.
    fn cast_vote(&mut self, t: Target, op: AddrId) {
        let voters = self.votes[t.0 as usize].entry(t.1).or_default();
        match voters.iter_mut().find(|(voter, _)| *voter == op) {
            Some((_, n)) => *n += 1,
            None => {
                voters.push((op, 1));
                self.op_votes.entry(op).or_default().push(t);
            }
        }
    }

    /// Ingests one poll: the detector's events plus the transaction
    /// window `[previous watermark, watermark)`, where `watermark` is
    /// the detector's cursor after the poll that produced `events` (so
    /// every event's transaction lies below it).
    /// Membership checks follow the batch-at-watermark semantics: every
    /// role the events name counts as a dataset member from the start of
    /// the poll, as it does in the detector's dataset after the poll.
    pub fn ingest(
        &mut self,
        chain: &Chain,
        labels: &LabelStore,
        events: &[DetectorEvent],
        watermark: TxId,
    ) {
        let lo = self.watermark;
        let hi = watermark.min(chain.transactions().len() as TxId).max(lo);
        self.watermark = hi;
        let _ingest_span =
            daas_obs::span!("cluster.ingest", window = hi - lo, events = events.len());
        let stats_before = self.stats;
        self.size_marks(chain, labels);

        // Mark every role the poll names before any event replays: an
        // operator admitted early in the poll must not take a member
        // named later for a phish touch.
        let named: Vec<Option<AddrId>> = events
            .iter()
            .map(|event| match event {
                DetectorEvent::ContractAdmitted { contract: a, .. }
                | DetectorEvent::OperatorObserved(a)
                | DetectorEvent::AffiliateObserved(a) => chain.addr_id(*a),
                DetectorEvent::PsTransaction { .. } => None,
            })
            .collect();
        for id in named.iter().flatten() {
            self.marks[id.index()] |= MEMBER;
        }

        // One guard over the verdict table reads every profit-sharing
        // transaction's role ids.
        let cache = Arc::clone(&self.cache);
        let verdicts = cache.read_to(chain, &self.classifier, hi);
        for (event, id) in events.iter().zip(named) {
            match (event, id) {
                (DetectorEvent::PsTransaction { tx, .. }, _) => {
                    let roles =
                        verdicts.roles(*tx).expect("a PsTransaction event classifies positively");
                    // A vote from the component that holds the target
                    // only widens the holder's lead: no re-vote.
                    let voter = self.op_comp.get(&roles.operator).copied();
                    for t in [(T_CONTRACT, roles.contract), (T_AFFILIATE, roles.affiliate)] {
                        self.cast_vote(t, roles.operator);
                        if voter.is_none() || self.target_assign.get(&t).copied() != voter {
                            self.dirty_targets.insert(t);
                        }
                    }
                    let txs = self.contract_txs.entry(roles.contract).or_default();
                    if let Err(at) = txs.binary_search(tx) {
                        txs.insert(at, *tx);
                        self.txs_new.push((roles.contract, *tx));
                    }
                }
                (DetectorEvent::OperatorObserved(_), Some(op)) => {
                    self.revoke(op);
                    self.admit_operator(chain, op);
                }
                (_, Some(account)) => self.revoke(account),
                // An address the chain never interned has no history,
                // no votes and no touches.
                (_, None) => {}
            }
        }
        drop(verdicts);

        // Window scan: only the new transactions, and among those only
        // the ones touching an operator — enumerated from the per-address
        // history index (each operator's slice is in chain order) rather
        // than walking the whole window. An operator admitted mid-poll
        // already scanned its full history above, so together the two
        // scans cover exactly what the batch extract sees at this
        // watermark.
        let mut op_txs: Vec<TxId> = Vec::new();
        for &op in &self.operators {
            let hist = chain.txs_of_id(op);
            let from = hist.partition_point(|&t| t < lo);
            op_txs.extend(hist[from..].iter().take_while(|&&t| t < hi));
        }
        op_txs.sort_unstable();
        op_txs.dedup();
        let store = chain.transactions();
        let (mut touched, mut ops_in) = (Vec::new(), Vec::new());
        for txid in op_txs {
            store.touched_ids_into(txid, &mut touched);
            ops_in.clear();
            let operator = |p: &AddrId| self.marks[p.index()] & OPERATOR != 0;
            ops_in.extend(touched.iter().copied().filter(operator));
            // Pairs in address order, as the batch merge normalizes them.
            ops_in.sort_unstable_by_key(|&op| chain.resolve_addr(op));
            for (i, &a) in ops_in.iter().enumerate() {
                for &b in &ops_in[i + 1..] {
                    self.add_edge(a, b);
                }
            }
            for &party in &touched {
                if self.marks[party.index()] & (OPERATOR | MEMBER | PHISH) == PHISH {
                    for &op in &ops_in {
                        self.add_phish_touch(party, op);
                    }
                }
            }
        }

        // Scoped rebuilds, after the window scan so they see the final
        // edge state (the partition depends only on the edge set).
        let pending = std::mem::take(&mut self.pending_rebuild);
        for cid in pending {
            self.scoped_rebuild(chain, cid);
        }

        if daas_obs::enabled() {
            // Per-poll deltas of the incremental-work counters.
            let d = self.stats;
            daas_obs::add("cluster.edges", (d.edges - stats_before.edges) as u64);
            daas_obs::add("cluster.merges", (d.merges - stats_before.merges) as u64);
            daas_obs::add("cluster.rebuilds", (d.rebuilds - stats_before.rebuilds) as u64);
        }
    }

    /// Admits a new operator: interns it as a singleton component and
    /// scans its full confirmed history (the streaming equivalent of
    /// the batch per-operator extract).
    fn admit_operator(&mut self, chain: &Chain, op: AddrId) {
        if self.marks[op.index()] & OPERATOR != 0 {
            return;
        }
        self.marks[op.index()] |= OPERATOR;
        self.operators.push(op);
        let cid = self.next_cid;
        self.next_cid += 1;
        self.comps.insert(
            cid,
            CompState {
                key: chain.resolve_addr(op),
                members: vec![op],
                edges: Vec::new(),
                phish: BTreeSet::new(),
                contracts: BTreeSet::new(),
                affiliates: BTreeSet::new(),
            },
        );
        self.op_comp.insert(op, cid);
        self.dirty_comps.insert(cid);
        // Votes cast before admission (earlier events of this poll)
        // only start counting now that the operator has a component.
        if let Some(targets) = self.op_votes.get(&op) {
            self.dirty_targets.extend(targets.iter().copied());
        }
        let store = chain.transactions();
        let mut touched = Vec::new();
        for &txid in chain.txs_of_id(op) {
            if txid >= self.watermark {
                break;
            }
            store.touched_ids_into(txid, &mut touched);
            for &party in &touched {
                let mark = self.marks[party.index()];
                if party == op {
                    continue;
                }
                if mark & OPERATOR != 0 {
                    self.add_edge(op, party);
                } else if mark & (MEMBER | PHISH) == PHISH {
                    self.add_phish_touch(party, op);
                }
            }
        }
    }

    fn add_edge(&mut self, a: AddrId, b: AddrId) {
        let key = (a.min(b), a.max(b));
        if self.direct_edges.insert(key) {
            self.stats.edges += 1;
            let ca = *self.op_comp.get(&a).expect("edge endpoints are admitted operators");
            let cb = *self.op_comp.get(&b).expect("edge endpoints are admitted operators");
            let cid = if ca != cb {
                self.stats.merges += 1;
                self.merge_comps(ca, cb)
            } else {
                ca
            };
            self.comps.get_mut(&cid).expect("live component").edges.push(key);
        }
    }

    fn add_phish_touch(&mut self, party: AddrId, op: AddrId) {
        let (inserted, other) = {
            let set = self.phish_touch.entry(party).or_default();
            if set.insert(op) {
                // Chain the newcomer to any existing member:
                // transitively identical to the batch `windows(2)`
                // sweep over the set.
                (true, set.iter().copied().find(|&x| x != op))
            } else {
                (false, None)
            }
        };
        if !inserted {
            return;
        }
        self.stats.edges += 1;
        if let Some(other) = other {
            let ca = *self.op_comp.get(&op).expect("touching operators are admitted");
            let cb = *self.op_comp.get(&other).expect("touching operators are admitted");
            if ca != cb {
                self.stats.merges += 1;
                self.merge_comps(ca, cb);
            }
        }
        let cid = *self.op_comp.get(&op).expect("touching operators are admitted");
        self.comps.get_mut(&cid).expect("live component").phish.insert(party);
    }

    /// Merges two components; the larger side survives (weighted union,
    /// so relabeling totals O(n log n) over the stream). Returns the
    /// surviving id.
    fn merge_comps(&mut self, ca: Cid, cb: Cid) -> Cid {
        let la = self.comps.get(&ca).expect("live component").members.len();
        let lb = self.comps.get(&cb).expect("live component").members.len();
        let (s, l) = if la >= lb { (ca, cb) } else { (cb, ca) };
        let loser = self.comps.remove(&l).expect("live component");
        self.assembled.remove(&l);
        for &m in &loser.members {
            self.op_comp.insert(m, s);
        }
        // Dirty-target rule: a target's vote inputs change only for
        // the side whose key is not the merged minimum (its tie-break
        // shifts) — plus everything voting in the absorbed side, whose
        // assigned component id disappears.
        {
            let op_votes = &self.op_votes;
            let comps = &self.comps;
            let dirty = &mut self.dirty_targets;
            for m in &loser.members {
                if let Some(ts) = op_votes.get(m) {
                    dirty.extend(ts.iter().copied());
                }
            }
            let survivor = comps.get(&s).expect("live component");
            if loser.key < survivor.key {
                for m in &survivor.members {
                    if let Some(ts) = op_votes.get(m) {
                        dirty.extend(ts.iter().copied());
                    }
                }
            }
        }
        // Keep the assignment invariant: targets riding along point at
        // the survivor until their re-vote settles them.
        for &c in &loser.contracts {
            self.target_assign.insert((T_CONTRACT, c), s);
        }
        for &a in &loser.affiliates {
            self.target_assign.insert((T_AFFILIATE, a), s);
        }
        let survivor = self.comps.get_mut(&s).expect("live component");
        survivor.key = survivor.key.min(loser.key);
        survivor.members.extend(loser.members);
        survivor.edges.extend(loser.edges);
        survivor.phish.extend(loser.phish);
        survivor.contracts.extend(loser.contracts);
        survivor.affiliates.extend(loser.affiliates);
        self.dirty_comps.insert(s);
        if self.pending_rebuild.remove(&l) {
            self.pending_rebuild.insert(s);
        }
        s
    }

    /// Drops a phish-touch entry when the account joins the dataset and
    /// schedules a scoped rebuild of the owning component.
    fn revoke(&mut self, account: AddrId) {
        let Some(set) = self.phish_touch.remove(&account) else { return };
        if let Some(first) = set.iter().next() {
            if let Some(&cid) = self.op_comp.get(first) {
                if let Some(comp) = self.comps.get_mut(&cid) {
                    comp.phish.remove(&account);
                }
                self.pending_rebuild.insert(cid);
            }
        }
    }

    /// Re-partitions one component over its own retained edges after a
    /// revocation, with a union-find built from the component by
    /// reference. If the partition is unchanged the component is kept
    /// as it is; a split moves its edges, phish accounts and members
    /// into fresh ids for every part (stale assignments are tombstoned)
    /// and dirties all its targets.
    fn scoped_rebuild(&mut self, chain: &Chain, cid: Cid) {
        let Some(comp) = self.comps.get(&cid) else { return };
        self.stats.rebuilds += 1;
        let addr = |id: AddrId| chain.resolve_addr(id);
        let mut uf = UnionFind::new();
        for &m in &comp.members {
            uf.insert(addr(m));
        }
        for &(a, b) in &comp.edges {
            uf.union(addr(a), addr(b));
        }
        for p in &comp.phish {
            if let Some(ops) = self.phish_touch.get(p) {
                let chain: Vec<Address> = ops.iter().map(|&op| addr(op)).collect();
                for pair in chain.windows(2) {
                    uf.union(pair[0], pair[1]);
                }
            }
        }
        let parts = uf.components();
        if parts.len() <= 1 {
            return;
        }
        let comp = self.comps.remove(&cid).expect("live component");
        self.assembled.remove(&cid);
        self.dirty_comps.remove(&cid);
        let contracts = comp.contracts.iter().map(|&c| (T_CONTRACT, c));
        for t in contracts.chain(comp.affiliates.iter().map(|&a| (T_AFFILIATE, a))) {
            self.target_assign.remove(&t);
            self.dirty_targets.insert(t);
        }
        // The parts come sorted by smallest member, each sorted by
        // address, and take fresh ids in that order.
        for part in parts {
            let ncid = self.next_cid;
            self.next_cid += 1;
            let members: Vec<AddrId> = part
                .iter()
                .map(|&m| chain.addr_id(m).expect("members resolve from interned ids"))
                .collect();
            for &m in &members {
                self.op_comp.insert(m, ncid);
            }
            self.dirty_comps.insert(ncid);
            self.comps.insert(
                ncid,
                CompState {
                    key: part[0],
                    members,
                    edges: Vec::new(),
                    phish: BTreeSet::new(),
                    contracts: BTreeSet::new(),
                    affiliates: BTreeSet::new(),
                },
            );
        }
        // An edge, and a phish account's touch chain, lie inside one
        // part: each follows the part of its first operator.
        for (a, b) in comp.edges {
            let ncid = self.op_comp[&a];
            self.comps.get_mut(&ncid).expect("live component").edges.push((a, b));
        }
        for p in comp.phish {
            if let Some(first) = self.phish_touch.get(&p).and_then(|ops| ops.first()) {
                let ncid = self.op_comp[first];
                self.comps.get_mut(&ncid).expect("live component").phish.insert(p);
            }
        }
    }

    /// Recomputes one target's majority vote and moves it between
    /// component assignment sets when the winner changed. The winner is
    /// [`vote_winner`] over the components' keys, as in the batch
    /// assembly (`assign`), where components are index-sorted by
    /// smallest member, so smaller index ⟺ smaller key;
    /// `tied_votes_go_to_the_smaller_first_operator` pins the two paths
    /// together. `tally` is scratch space, and `entries` counts the vote
    /// entries read.
    ///
    /// The component that lost the target is structurally dirty; the
    /// one that gained it is returned instead, because a gain alone can
    /// be patched into its cached family.
    fn revote_target(
        &mut self,
        t: Target,
        tally: &mut Vec<(Cid, u64)>,
        entries: &mut u64,
    ) -> Option<Cid> {
        let (kind, id) = t;
        let voters = self.votes[kind as usize].get(&id).map_or(&[][..], Vec::as_slice);
        *entries += voters.len() as u64;
        tally.clear();
        for &(op, n) in voters {
            let Some(&cid) = self.op_comp.get(&op) else { continue };
            match tally.iter_mut().find(|(c, _)| *c == cid) {
                Some((_, total)) => *total += u64::from(n),
                None => tally.push((cid, u64::from(n))),
            }
        }
        // Keys are distinct per component, so (key, cid) orders as the key.
        let key = |cid: Cid| (self.comps.get(&cid).expect("voted comps are live").key, cid);
        let new_cid = vote_winner(tally.iter().map(|&(cid, n)| (key(cid), n))).map(|(_, cid)| cid);
        let old_cid = self.target_assign.get(&t).copied();
        if old_cid == new_cid {
            return None;
        }
        if let Some(oc) = old_cid {
            if let Some(comp) = self.comps.get_mut(&oc) {
                comp.assigned(kind).remove(&id);
                self.dirty_comps.insert(oc);
            }
        }
        match new_cid {
            Some(nc) => {
                self.comps.get_mut(&nc).expect("vote winner is live").assigned(kind).insert(id);
                self.target_assign.insert(t, nc);
            }
            None => {
                self.target_assign.remove(&t);
            }
        }
        new_cid
    }

    /// The current clustering — byte-identical to
    /// [`crate::cluster_prefix`] run at [`Self::watermark`] with the
    /// same dataset. O(changed components): the dirty targets re-vote,
    /// components that only grew are patched, structurally changed ones
    /// re-assemble, and every other family is served as an `Arc` clone
    /// of the cached assembly — an idle snapshot allocates nothing.
    /// `chain` and `labels` must be the ones every ingest saw — cached
    /// names assume the labels.
    pub fn clustering(&mut self, chain: &Chain, labels: &LabelStore) -> Clustering {
        let _snapshot_span = daas_obs::span!("cluster.snapshot");
        let stats_before = self.stats;
        let addr = |id: AddrId| chain.resolve_addr(id);

        // 1. Settle the dirty vote assignments, collecting what each
        //    winning component gained.
        let mut patches: BTreeMap<Cid, Patch> = BTreeMap::new();
        let dirty_targets = std::mem::take(&mut self.dirty_targets);
        let (revoted, mut entries, mut tally) = (dirty_targets.len(), 0, Vec::new());
        for t in dirty_targets {
            let Some(cid) = self.revote_target(t, &mut tally, &mut entries) else { continue };
            let patch = patches.entry(cid).or_default();
            match t {
                (T_CONTRACT, c) => {
                    patch.contracts.push(addr(c));
                    if let Some(txs) = self.contract_txs.get(&c) {
                        patch.txs.extend_from_slice(txs);
                    }
                }
                (_, a) => patch.affiliates.push(addr(a)),
            }
        }
        // 2. New transaction attributions. Unassigned contracts
        //    contribute to no family — if the contract is assigned
        //    later, that re-vote carries its whole `contract_txs`.
        for (c, tx) in std::mem::take(&mut self.txs_new) {
            if let Some(&cid) = self.target_assign.get(&(T_CONTRACT, c)) {
                patches.entry(cid).or_default().txs.push(tx);
            }
        }
        //    A component whose only change is growth — new transactions,
        //    newly assigned contracts or affiliates — keeps its cached
        //    family and has the sorted additions merged in (identical to
        //    re-assembling, since a transaction belongs to exactly one
        //    contract and a target to at most one component). A
        //    component that also merged, split or lost a target is
        //    structurally dirty and falls through to full re-assembly,
        //    as does one with no cached family yet.
        for (cid, patch) in patches {
            if self.dirty_comps.contains(&cid) {
                continue;
            }
            let Some(slot) = self.assembled.get_mut(&cid) else { continue };
            patch.apply(Arc::make_mut(slot), labels);
            self.stats.families_patched += 1;
        }
        // 3. Drop the invalidated assemblies.
        let dirty_comps = std::mem::take(&mut self.dirty_comps);
        for cid in dirty_comps {
            self.assembled.remove(&cid);
        }

        // 4. Assemble (or reuse) per component, iterated in batch
        // order: sorted by smallest member.
        let mut order: Vec<(Address, Cid)> =
            self.comps.iter().map(|(&cid, comp)| (comp.key, cid)).collect();
        order.sort_unstable();
        let mut out: Vec<(Cid, Arc<Family>)> = Vec::with_capacity(order.len());
        for (_, cid) in order {
            if let Some(family) = self.assembled.get(&cid) {
                self.stats.families_reused += 1;
                out.push((cid, family.clone()));
                continue;
            }
            let comp = self.comps.get(&cid).expect("live component");
            let sorted = |ids: &mut dyn Iterator<Item = AddrId>| {
                let mut out: Vec<(Address, AddrId)> = ids.map(|id| (addr(id), id)).collect();
                out.sort_unstable();
                out
            };
            let operators: Vec<Address> =
                sorted(&mut comp.members.iter().copied()).into_iter().map(|(a, _)| a).collect();
            let contracts = sorted(&mut comp.contracts.iter().copied());
            let affiliates: Vec<Address> =
                sorted(&mut comp.affiliates.iter().copied()).into_iter().map(|(a, _)| a).collect();
            // Per-contract sets are disjoint, so a flat collect + sort
            // is the union (and much cheaper than a B-tree merge).
            let mut ps_txs: Vec<TxId> = Vec::new();
            for (_, c) in &contracts {
                if let Some(txs) = self.contract_txs.get(c) {
                    ps_txs.extend_from_slice(txs);
                }
            }
            ps_txs.sort_unstable();
            let contracts: Vec<Address> = contracts.into_iter().map(|(a, _)| a).collect();
            let family = Arc::new(Family {
                id: 0, // assigned after sorting, as in the batch path
                name: family_name(labels, &operators, &contracts),
                operators,
                contracts,
                affiliates,
                ps_txs,
            });
            self.stats.families_assembled += 1;
            self.assembled.insert(cid, family.clone());
            out.push((cid, family));
        }

        // 5. Dominant families first. The sort is stable and the
        // pre-order matches the batch pre-order, so full ties break
        // identically. Ids are rewritten only where they differ —
        // steady-state snapshots clone no family at all.
        out.sort_by(|a, b| {
            b.1.ps_txs.len().cmp(&a.1.ps_txs.len()).then_with(|| a.1.name.cmp(&b.1.name))
        });
        let mut families: Vec<Arc<Family>> = Vec::with_capacity(out.len());
        for (i, (cid, family)) in out.into_iter().enumerate() {
            let family = if family.id == i {
                family
            } else {
                let mut f = (*family).clone();
                f.id = i;
                let f = Arc::new(f);
                self.assembled.insert(cid, f.clone());
                f
            };
            families.push(family);
        }
        if daas_obs::enabled() {
            let d = self.stats;
            daas_obs::add("cluster.revote_targets", revoted as u64);
            daas_obs::add("cluster.revote_entries", entries);
            daas_obs::add(
                "cluster.families.reused",
                (d.families_reused - stats_before.families_reused) as u64,
            );
            daas_obs::add(
                "cluster.families.assembled",
                (d.families_assembled - stats_before.families_assembled) as u64,
            );
            daas_obs::add(
                "cluster.families.patched",
                (d.families_patched - stats_before.families_patched) as u64,
            );
        }
        Clustering { families }
    }
}

/// What one snapshot adds to a component whose structure did not
/// change (see step 2 of [`OnlineClusterer::clustering`]).
#[derive(Default)]
struct Patch {
    /// New transactions, plus every transaction of a newly assigned
    /// contract — which may repeat one listed as new.
    txs: Vec<TxId>,
    /// Newly assigned contracts.
    contracts: Vec<Address>,
    /// Newly assigned affiliates.
    affiliates: Vec<Address>,
}

impl Patch {
    /// Merges the additions into a family assembled before them. The
    /// name is re-derived when contracts joined, since a contract's
    /// label can name an otherwise unlabeled family.
    fn apply(mut self, family: &mut Family, labels: &LabelStore) {
        if !self.contracts.is_empty() {
            self.contracts.sort_unstable();
            merge_sorted(&mut family.contracts, &self.contracts);
            family.name = family_name(labels, &family.operators, &family.contracts);
        }
        self.affiliates.sort_unstable();
        merge_sorted(&mut family.affiliates, &self.affiliates);
        self.txs.sort_unstable();
        self.txs.dedup();
        merge_sorted(&mut family.ps_txs, &self.txs);
    }
}

/// Merges sorted `add` into sorted `dst`. The two sides are disjoint
/// (a transaction belongs to exactly one contract, recorded once; a
/// target is assigned to one component), and in the common case of
/// new transactions the additions all land past the current tail.
fn merge_sorted<T: Ord + Copy>(dst: &mut Vec<T>, add: &[T]) {
    if add.is_empty() {
        return;
    }
    if dst.last().is_none_or(|&tail| tail < add[0]) {
        dst.extend_from_slice(add);
        return;
    }
    let mut merged = Vec::with_capacity(dst.len() + add.len());
    let (mut i, mut j) = (0, 0);
    while i < dst.len() && j < add.len() {
        if dst[i] <= add[j] {
            merged.push(dst[i]);
            i += 1;
        } else {
            merged.push(add[j]);
            j += 1;
        }
    }
    merged.extend_from_slice(&dst[i..]);
    merged.extend_from_slice(&add[j..]);
    *dst = merged;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    use crate::families::cluster;
    use daas_chain::{ContractKind, EntryStyle, Label, LabelCategory, LabelSource, ProfitSharingSpec};
    use daas_detector::{Admission, Dataset};
    use eth_types::units::ether;

    /// The `families.rs` fixture: three operators with one contract /
    /// affiliate / profit-sharing tx each, operators A and B linked by a
    /// direct transfer, operator A labeled as a drainer family.
    fn setup() -> (Chain, LabelStore, Dataset, [Address; 3]) {
        let mut chain = Chain::new();
        let mut labels = LabelStore::new();
        let op_a = chain.create_eoa_funded(b"opA", ether(10)).unwrap();
        let op_b = chain.create_eoa_funded(b"opB", ether(10)).unwrap();
        let op_c = chain.create_eoa_funded(b"opC", ether(10)).unwrap();

        let mut dataset = Dataset::default();
        for (op, seed) in [(op_a, b"aff-a".as_slice()), (op_b, b"aff-b"), (op_c, b"aff-c")] {
            let aff = chain.create_eoa(seed).unwrap();
            let contract = chain
                .deploy_contract(
                    op,
                    ContractKind::ProfitSharing(ProfitSharingSpec {
                        operator: op,
                        operator_bps: 2000,
                        entry: EntryStyle::PayableFallback,
                    }),
                )
                .unwrap();
            let victim = chain
                .create_eoa_funded(format!("v-{contract}").as_bytes(), ether(50))
                .unwrap();
            chain.advance(12);
            let tx = chain.claim_eth(victim, contract, ether(10), aff).unwrap();
            let obs = daas_detector::classify_tx(chain.tx(tx), &Default::default()).unwrap();
            dataset.absorb(obs);
        }
        dataset.operators.extend([op_a, op_b, op_c]);

        chain.advance(12);
        chain.transfer_eth(op_a, op_b, ether(1)).unwrap();

        labels.add(Label {
            address: op_a,
            source: LabelSource::Etherscan,
            category: LabelCategory::DrainerFamily,
            text: "Angel Drainer".into(),
        });
        (chain, labels, dataset, [op_a, op_b, op_c])
    }

    /// Synthesizes the event feed the detector would have produced for
    /// this dataset (one admission + tx + role pair per observation).
    fn events_for(dataset: &Dataset) -> Vec<DetectorEvent> {
        let mut events = Vec::new();
        let mut seen_ops: HashSet<Address> = HashSet::new();
        let mut seen_affs: HashSet<Address> = HashSet::new();
        let mut seen_contracts: HashSet<Address> = HashSet::new();
        for obs in &dataset.observations {
            if seen_contracts.insert(obs.contract) {
                events.push(DetectorEvent::ContractAdmitted {
                    contract: obs.contract,
                    via: Admission::SeedLabel,
                });
            }
            events.push(DetectorEvent::PsTransaction { tx: obs.tx, contract: obs.contract });
            if seen_ops.insert(obs.operator) {
                events.push(DetectorEvent::OperatorObserved(obs.operator));
            }
            if seen_affs.insert(obs.affiliate) {
                events.push(DetectorEvent::AffiliateObserved(obs.affiliate));
            }
        }
        events
    }

    fn json(c: &Clustering) -> String {
        serde_json::to_string(c).expect("clustering serializes")
    }

    #[test]
    fn single_poll_matches_batch() {
        let (chain, labels, dataset, _) = setup();
        let mut online = OnlineClusterer::new(ClassifierConfig::default());
        let watermark = chain.transactions().len() as TxId;
        online.ingest(&chain, &labels, &events_for(&dataset), watermark);
        let live = online.clustering(&chain, &labels);
        let batch = cluster(&chain, &labels, &dataset);
        assert_eq!(json(&live), json(&batch));
        assert_eq!(live.families.len(), 2, "A+B merged, C alone");
        assert!(online.stats().merges >= 1);
        assert_eq!(online.stats().rebuilds, 0);
    }

    #[test]
    fn repeated_snapshots_reuse_every_family() {
        let (chain, labels, dataset, _) = setup();
        let mut online = OnlineClusterer::new(ClassifierConfig::default());
        let watermark = chain.transactions().len() as TxId;
        online.ingest(&chain, &labels, &events_for(&dataset), watermark);
        let first = json(&online.clustering(&chain, &labels));
        assert_eq!(online.stats().families_reused, 0);
        let again = json(&online.clustering(&chain, &labels));
        assert_eq!(first, again, "idle snapshot is identical");
        assert_eq!(online.stats().families_reused, 2, "both families served from cache");
    }

    /// An idle snapshot must hand out the *same allocations* as the
    /// previous one — the Arc-sharing satellite of the O(delta) work.
    #[test]
    fn idle_snapshots_share_family_allocations() {
        let (chain, labels, dataset, _) = setup();
        let mut online = OnlineClusterer::new(ClassifierConfig::default());
        let watermark = chain.transactions().len() as TxId;
        online.ingest(&chain, &labels, &events_for(&dataset), watermark);
        let first = online.clustering(&chain, &labels);
        let second = online.clustering(&chain, &labels);
        assert_eq!(first.families.len(), second.families.len());
        for (a, b) in first.families.iter().zip(&second.families) {
            assert!(Arc::ptr_eq(a, b), "idle snapshot reuses the family allocation");
        }
    }

    /// A new profit-sharing transaction on one family must not rebuild
    /// the other family's assembly.
    #[test]
    fn untouched_families_are_cached_across_polls() {
        let (mut chain, labels, mut dataset, [op_a, ..]) = setup();
        let mut online = OnlineClusterer::new(ClassifierConfig::default());
        let watermark = chain.transactions().len() as TxId;
        online.ingest(&chain, &labels, &events_for(&dataset), watermark);
        online.clustering(&chain, &labels);

        // Second poll: one more claim through A's contract.
        let contract_a = dataset
            .observations
            .iter()
            .find(|o| o.operator == op_a)
            .map(|o| o.contract)
            .unwrap();
        let victim = chain.create_eoa_funded(b"v-late", ether(50)).unwrap();
        let aff = dataset.observations[0].affiliate;
        chain.advance(12);
        let tx = chain.claim_eth(victim, contract_a, ether(5), aff).unwrap();
        let obs = daas_detector::classify_tx(chain.tx(tx), &Default::default()).unwrap();
        dataset.absorb(obs);
        let events = [DetectorEvent::PsTransaction { tx, contract: contract_a }];
        online.ingest(&chain, &labels, &events, chain.transactions().len() as TxId);

        let reused_before = online.stats().families_reused;
        let patched_before = online.stats().families_patched;
        let assembled_before = online.stats().families_assembled;
        let live = online.clustering(&chain, &labels);
        assert_eq!(
            online.stats().families_reused,
            reused_before + 2,
            "both cached assemblies survive: one untouched, one patched in place"
        );
        assert_eq!(
            online.stats().families_patched,
            patched_before + 1,
            "the new transaction is spliced into the cached family"
        );
        assert_eq!(
            online.stats().families_assembled,
            assembled_before,
            "transaction growth alone re-assembles nothing"
        );
        let batch = cluster(&chain, &labels, &dataset);
        assert_eq!(json(&live), json(&batch));
    }

    /// A component that only gains targets — a new contract (whose
    /// label renames the family) and a new affiliate, then more
    /// transactions — is patched in place, never re-assembled, and
    /// still equals the batch oracle at every poll boundary.
    #[test]
    fn grown_components_are_patched_not_reassembled() {
        let (mut chain, mut labels, mut dataset, [.., op_c]) = setup();
        let contract = chain
            .deploy_contract(
                op_c,
                ContractKind::ProfitSharing(ProfitSharingSpec {
                    operator: op_c,
                    operator_bps: 2000,
                    entry: EntryStyle::PayableFallback,
                }),
            )
            .unwrap();
        labels.add(Label {
            address: contract,
            source: LabelSource::Etherscan,
            category: LabelCategory::DrainerFamily,
            text: "Pink Drainer".into(),
        });
        let aff = chain.create_eoa(b"aff-late").unwrap();

        // One poll: ingest to the chain tip, then compare with the batch
        // oracle at that watermark.
        let poll = |online: &mut OnlineClusterer,
                    chain: &Chain,
                    dataset: &Dataset,
                    events: &[DetectorEvent]| {
            let watermark = chain.transactions().len() as TxId;
            online.ingest(chain, &labels, events, watermark);
            let live = online.clustering(chain, &labels);
            let batch = crate::cluster_prefix(chain, &labels, dataset, watermark);
            assert_eq!(json(&live), json(&batch));
            live
        };
        let mut online = OnlineClusterer::new(ClassifierConfig::default());
        poll(&mut online, &chain, &dataset, &events_for(&dataset));
        let assembled = online.stats().families_assembled;

        // Poll 1 assigns the new contract and affiliate to C's
        // component; poll 2 only adds a transaction.
        for (i, first_claim) in [true, false].into_iter().enumerate() {
            let victim =
                chain.create_eoa_funded(format!("v-late{i}").as_bytes(), ether(50)).unwrap();
            chain.advance(12);
            let tx = chain.claim_eth(victim, contract, ether(5), aff).unwrap();
            let obs = daas_detector::classify_tx(chain.tx(tx), &Default::default()).unwrap();
            dataset.absorb(obs);
            let mut events = vec![DetectorEvent::PsTransaction { tx, contract }];
            if first_claim {
                let via = Admission::SeedLabel;
                events.insert(0, DetectorEvent::ContractAdmitted { contract, via });
                events.push(DetectorEvent::AffiliateObserved(aff));
            }
            let patched = online.stats().families_patched;
            let live = poll(&mut online, &chain, &dataset, &events);
            assert_eq!(online.stats().families_patched, patched + 1, "poll {i}: patched");
            assert_eq!(online.stats().families_assembled, assembled, "poll {i}: re-assembled");
            let family = live.families.iter().find(|f| f.operators == [op_c]).unwrap();
            assert_eq!(family.name, "Pink Drainer", "the new contract's label names the family");
            assert_eq!((family.contracts.len(), family.affiliates.len()), (2, 2));
        }
    }

    /// A phish-touch chain is revoked — and the owning component
    /// re-partitioned, scoped — when the shared account itself joins
    /// the dataset.
    #[test]
    fn phish_revocation_splits_the_family() {
        let (mut chain, mut labels, mut dataset, [op_a, _, op_c]) = setup();
        // op_a and op_c both touch an old labeled phishing EOA.
        let phish = chain.create_eoa(b"old-phish").unwrap();
        labels.add_phishing(phish, LabelSource::Etherscan, "Fake_Phishing123");
        chain.advance(12);
        chain.transfer_eth(op_a, phish, ether(1)).unwrap();
        chain.transfer_eth(op_c, phish, ether(1)).unwrap();

        let mut online = OnlineClusterer::new(ClassifierConfig::default());
        let watermark = chain.transactions().len() as TxId;
        online.ingest(&chain, &labels, &events_for(&dataset), watermark);
        let merged = online.clustering(&chain, &labels);
        assert_eq!(merged.families.len(), 1, "shared phish account merges everything");
        assert_eq!(
            json(&merged),
            json(&cluster(&chain, &labels, &dataset))
        );

        // The phish account now joins the dataset as an affiliate: the
        // batch rule no longer counts its touches, so the live state
        // must split back apart.
        dataset.affiliates.insert(phish);
        online.ingest(&chain, &labels, &[DetectorEvent::AffiliateObserved(phish)], watermark);
        assert_eq!(online.stats().rebuilds, 1);
        let split = online.clustering(&chain, &labels);
        assert_eq!(split.families.len(), 2, "A+B stay merged, C splits off");
        assert_eq!(
            json(&split),
            json(&cluster(&chain, &labels, &dataset))
        );
    }

    /// One splitter contract pays the same affiliate twice, once with
    /// each of two unlinked operators, so the contract and the affiliate
    /// each get one vote from either component. Both go to the
    /// component with the smaller first operator, in the batch assembly
    /// and in the live re-vote alike.
    #[test]
    fn tied_votes_go_to_the_smaller_first_operator() {
        let mut chain = Chain::new();
        let labels = LabelStore::new();
        let op_x = chain.create_eoa_funded(b"tie/opX", ether(1)).unwrap();
        let op_y = chain.create_eoa_funded(b"tie/opY", ether(1)).unwrap();
        let aff = chain.create_eoa(b"tie/aff").unwrap();
        let payer = chain.create_eoa_funded(b"tie/payer", ether(100)).unwrap();
        let splitter = chain.deploy_contract(payer, ContractKind::Benign).unwrap();
        let mut dataset = Dataset::default();
        for op in [op_x, op_y] {
            chain.advance(12);
            let split = [(op, 2000), (aff, 8000)];
            let tx = chain.split_payment(payer, splitter, ether(10), &split).unwrap();
            let obs = daas_detector::classify_tx(chain.tx(tx), &Default::default()).unwrap();
            assert_eq!((obs.contract, obs.operator, obs.affiliate), (splitter, op, aff));
            dataset.absorb(obs);
        }
        let winner = op_x.min(op_y);

        let batch = cluster(&chain, &labels, &dataset);
        let mut online = OnlineClusterer::new(ClassifierConfig::default());
        let watermark = chain.transactions().len() as TxId;
        online.ingest(&chain, &labels, &events_for(&dataset), watermark);
        let live = online.clustering(&chain, &labels);
        for clustering in [&batch, &live] {
            assert_eq!(clustering.families.len(), 2, "the operators stay apart");
            let fam = &clustering.families[0];
            assert_eq!(fam.operators, vec![winner]);
            assert_eq!(fam.contracts, vec![splitter]);
            assert_eq!(fam.affiliates, vec![aff]);
            assert_eq!(fam.ps_txs.len(), 2);
            assert!(clustering.families[1].contracts.is_empty());
            assert!(clustering.families[1].affiliates.is_empty());
        }
        assert_eq!(json(&live), json(&batch));
    }

    /// A new vote from the component that holds the target leaves no
    /// target dirty, yet the family still gains the transaction.
    #[test]
    fn votes_from_the_holding_component_are_not_revoted() {
        let (mut chain, labels, mut dataset, [op_a, ..]) = setup();
        let mut online = OnlineClusterer::new(ClassifierConfig::default());
        online.ingest(&chain, &labels, &events_for(&dataset), chain.transactions().len() as TxId);
        online.clustering(&chain, &labels);

        let held = dataset.observations.iter().find(|o| o.operator == op_a).unwrap().clone();
        let victim = chain.create_eoa_funded(b"v-held", ether(50)).unwrap();
        chain.advance(12);
        let tx = chain.claim_eth(victim, held.contract, ether(5), held.affiliate).unwrap();
        dataset.absorb(daas_detector::classify_tx(chain.tx(tx), &Default::default()).unwrap());
        let events = [DetectorEvent::PsTransaction { tx, contract: held.contract }];
        online.ingest(&chain, &labels, &events, chain.transactions().len() as TxId);
        assert!(online.dirty_targets.is_empty(), "the holder's vote re-votes nothing");
        let live = online.clustering(&chain, &labels);
        assert_eq!(json(&live), json(&cluster(&chain, &labels, &dataset)));
    }

    /// Votes from another component still move a target once they
    /// outnumber the holder's: the splitter contract and its affiliate
    /// go from the tie winner to the operator that pays through them
    /// more often.
    #[test]
    fn votes_that_outnumber_the_holder_move_the_target() {
        let mut chain = Chain::new();
        let labels = LabelStore::new();
        let op_x = chain.create_eoa_funded(b"tie/opX", ether(1)).unwrap();
        let op_y = chain.create_eoa_funded(b"tie/opY", ether(1)).unwrap();
        let aff = chain.create_eoa(b"tie/aff").unwrap();
        let payer = chain.create_eoa_funded(b"tie/payer", ether(100)).unwrap();
        let splitter = chain.deploy_contract(payer, ContractKind::Benign).unwrap();
        let (holder, other) = (op_x.min(op_y), op_x.max(op_y));
        let mut dataset = Dataset::default();
        let pay = |chain: &mut Chain, dataset: &mut Dataset, op: Address| {
            chain.advance(12);
            let tx = chain.split_payment(payer, splitter, ether(1), &[(op, 2000), (aff, 8000)]);
            let tx = tx.unwrap();
            dataset.absorb(daas_detector::classify_tx(chain.tx(tx), &Default::default()).unwrap());
            [DetectorEvent::PsTransaction { tx, contract: splitter }]
        };
        pay(&mut chain, &mut dataset, op_x);
        pay(&mut chain, &mut dataset, op_y);
        let mut online = OnlineClusterer::new(ClassifierConfig::default());
        let ingest = |online: &mut OnlineClusterer, chain: &Chain, events: &[DetectorEvent]| {
            online.ingest(chain, &labels, events, chain.transactions().len() as TxId);
        };
        ingest(&mut online, &chain, &events_for(&dataset));
        let holds = |clustering: &Clustering, op: Address| {
            let fam = clustering.families.iter().find(|f| f.operators == [op]).unwrap();
            fam.contracts == [splitter] && fam.affiliates == [aff]
        };
        assert!(holds(&online.clustering(&chain, &labels), holder), "the tie goes to {holder}");

        // Holder 2, other 1: nothing to re-vote.
        let events = pay(&mut chain, &mut dataset, holder);
        ingest(&mut online, &chain, &events);
        assert!(online.dirty_targets.is_empty());
        // Holder 2, other 2: still the holder's on the tie. Holder 2,
        // other 3: both targets move.
        for (round, winner) in [holder, other].into_iter().enumerate() {
            let events = pay(&mut chain, &mut dataset, other);
            ingest(&mut online, &chain, &events);
            assert_eq!(online.dirty_targets.len(), 2, "round {round}: the other vote re-votes");
            let live = online.clustering(&chain, &labels);
            assert!(holds(&live, winner), "round {round}: held by {winner}");
            assert_eq!(json(&live), json(&cluster(&chain, &labels, &dataset)));
        }
    }

    #[test]
    fn empty_feed_clusters_to_nothing() {
        let chain = Chain::new();
        let labels = LabelStore::new();
        let mut online = OnlineClusterer::new(ClassifierConfig::default());
        online.ingest(&chain, &labels, &[], 0);
        assert!(online.clustering(&chain, &labels).families.is_empty());
        assert_eq!(online.watermark(), 0);
    }
}
