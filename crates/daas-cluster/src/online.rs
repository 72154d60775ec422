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
//! ## O(delta) state
//!
//! The retained state lives on plain Fx-hashed maps and explicit
//! per-component records, so a window update touches only what the
//! window changed:
//!
//! * **Components.** Instead of a global union-find that must be
//!   re-partitioned per snapshot, each component is an explicit
//!   [`CompState`] keyed by a stable integer id, carrying its members,
//!   its internal edges, its phish-touch accounts and its assigned
//!   contracts/affiliates. Edges merge components by relabeling the
//!   smaller side (weighted union), so total relabel work is
//!   O(n log n) across the stream.
//! * **Vote assignment.** Contract/affiliate → family assignment (batch
//!   step 2) is cached in `target_assign` and re-voted only for *dirty*
//!   targets: those with new votes, those voting in a component whose
//!   key or membership changed, and those assigned to a split
//!   component. An `op_votes` reverse index makes the dirty set
//!   computable from the merge delta.
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
//! None of this state is shared with a reader — a published snapshot
//! holds only the `Arc<Family>` values — so it stays on ordinary hash
//! maps: an address-keyed lookup costs one hash and probe, and cloning
//! the clusterer (a bench's untimed setup) is a deep copy.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use daas_chain::{Chain, LabelStore, TxId};
use daas_detector::{ClassificationCache, ClassifierConfig, Dataset, DetectorEvent};
use eth_types::{Address, FxHashMap, FxHashSet};
use serde::{Deserialize, Serialize};
use txgraph::UnionFind;

use crate::families::{family_name, is_labeled_phishing, Clustering, Family};

/// Counters describing how much incremental work the clusterer did —
/// the observable evidence that snapshots reuse prior state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
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
    /// Smallest member — the batch tie-break key (batch components are
    /// sorted by smallest member, so smaller index ⟺ smaller key).
    key: Address,
    /// Member operators, unsorted (sorted on assembly only).
    members: Vec<Address>,
    /// Direct operator↔operator edges with both endpoints inside,
    /// normalized (min, max). Replayed on scoped rebuild.
    edges: Vec<(Address, Address)>,
    /// Labeled-phish accounts whose touch chains live in this
    /// component (a touch set always merges into one component).
    phish: BTreeSet<Address>,
    /// Contracts currently vote-assigned to this component (sorted,
    /// assembly-ready).
    contracts: BTreeSet<Address>,
    /// Affiliates currently vote-assigned to this component.
    affiliates: BTreeSet<Address>,
}

/// A vote target: (0, contract address) or (1, affiliate address).
type Target = (u8, Address);

const T_CONTRACT: u8 = 0;
const T_AFFILIATE: u8 = 1;

/// One component in a [`ClustererCheckpoint`]. Member and edge *order*
/// is preserved verbatim — a scoped rebuild's part enumeration follows
/// it, so restoring must not re-sort what the live state kept in
/// arrival order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompCheckpoint {
    /// Stable component id.
    pub cid: u64,
    /// Smallest member (the batch tie-break key).
    pub key: Address,
    /// Member operators, in live (arrival) order.
    pub members: Vec<Address>,
    /// Internal direct edges, in live order.
    pub edges: Vec<(Address, Address)>,
    /// Labeled-phish accounts owned by this component (sorted).
    pub phish: Vec<Address>,
    /// Vote-assigned contracts (sorted).
    pub contracts: Vec<Address>,
    /// Vote-assigned affiliates (sorted).
    pub affiliates: Vec<Address>,
}

/// Serialized [`OnlineClusterer`] state (DESIGN.md §13).
///
/// Everything is address-keyed (no interned ids), so the checkpoint is
/// portable across process restarts; unordered hash maps are sorted by
/// key on export so checkpoint bytes are deterministic, while
/// order-bearing vectors (vote multisets, member/edge lists, the
/// `txs_new` splice queue) are preserved verbatim. The assembled-family
/// cache is *not* serialized: it is a pure performance cache, rebuilt
/// lazily by the first snapshot after restore.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClustererCheckpoint {
    /// Transactions ingested (exclusive upper bound).
    pub watermark: TxId,
    /// Next component id to allocate (ids are never reused).
    pub next_cid: u64,
    /// Live components, sorted by id.
    pub comps: Vec<CompCheckpoint>,
    /// Global direct-edge dedup set, sorted.
    pub direct_edges: Vec<(Address, Address)>,
    /// Phish account → touching operators (sorted by account).
    pub phish_touch: Vec<(Address, Vec<Address>)>,
    /// Contract vote multisets, inner order preserved.
    pub contract_ops: Vec<(Address, Vec<Address>)>,
    /// Affiliate vote multisets, inner order preserved.
    pub affiliate_ops: Vec<(Address, Vec<Address>)>,
    /// Profit-sharing transactions per contract.
    pub contract_txs: Vec<(Address, Vec<TxId>)>,
    /// Operator → targets it voted for.
    pub op_votes: Vec<(Address, Vec<(u8, Address)>)>,
    /// Target → assigned component id.
    pub target_assign: Vec<((u8, Address), u64)>,
    /// Targets whose votes changed since the last snapshot.
    pub dirty_targets: Vec<(u8, Address)>,
    /// Components whose cached assembly was invalid.
    pub dirty_comps: Vec<u64>,
    /// Pending (contract, tx) splices, in arrival order.
    pub txs_new: Vec<(Address, TxId)>,
    /// Components owed a scoped rebuild.
    pub pending_rebuild: Vec<u64>,
    /// Incremental-work counters at the checkpoint.
    pub stats: OnlineClustererStats,
}

/// Incremental §7.1 clusterer. See the module docs for the invariants.
#[derive(Debug, Clone)]
pub struct OnlineClusterer {
    classifier: ClassifierConfig,
    cache: Arc<ClassificationCache>,
    watermark: TxId,
    /// Fast membership test for the hot window scan.
    operators: HashSet<Address>,
    next_cid: Cid,
    comps: FxHashMap<Cid, CompState>,
    /// Operator → owning component.
    op_comp: FxHashMap<Address, Cid>,
    /// Normalized (min, max) direct edges, global dedup.
    direct_edges: FxHashSet<(Address, Address)>,
    /// Labeled-phish account → operators that touched it. Entries are
    /// revoked (and the owning component rebuilt) when the account
    /// joins the dataset.
    phish_touch: FxHashMap<Address, BTreeSet<Address>>,
    /// Vote multisets, one entry per observation (batch step 2).
    contract_ops: FxHashMap<Address, Vec<Address>>,
    affiliate_ops: FxHashMap<Address, Vec<Address>>,
    /// Profit-sharing transactions per contract.
    contract_txs: FxHashMap<Address, BTreeSet<TxId>>,
    /// Operator → targets that voted for it (the reverse index that
    /// turns a merge delta into a dirty-target set).
    op_votes: FxHashMap<Address, BTreeSet<Target>>,
    /// Target → component it is currently assigned to. Invariant: the
    /// component is live and lists the target in its assigned sets.
    target_assign: FxHashMap<Target, Cid>,
    /// Assembled families per component id.
    assembled: FxHashMap<Cid, Arc<Family>>,
    /// Targets whose vote inputs changed since the last snapshot.
    dirty_targets: BTreeSet<Target>,
    /// Components whose cached assembly is invalid.
    dirty_comps: BTreeSet<Cid>,
    /// New (contract, tx) attributions since the last snapshot — spliced
    /// into the owning component's cached family when nothing else about
    /// the component changed.
    txs_new: Vec<(Address, TxId)>,
    /// Components owed a scoped rebuild, drained at end of ingest.
    pending_rebuild: BTreeSet<Cid>,
    stats: OnlineClustererStats,
}

impl OnlineClusterer {
    /// Creates a clusterer with its own classification cache.
    pub fn new(classifier: ClassifierConfig) -> Self {
        Self::with_cache(classifier, Arc::new(ClassificationCache::new()))
    }

    /// Creates a clusterer sharing a classification cache — in live mode
    /// the same [`Arc`] backs the detector, the clusterer and the final
    /// batch re-verification, so no transaction is classified twice. The
    /// cache must match `classifier`.
    pub fn with_cache(classifier: ClassifierConfig, cache: Arc<ClassificationCache>) -> Self {
        OnlineClusterer {
            classifier,
            cache,
            watermark: 0,
            operators: HashSet::new(),
            next_cid: 0,
            comps: FxHashMap::default(),
            op_comp: FxHashMap::default(),
            direct_edges: FxHashSet::default(),
            phish_touch: FxHashMap::default(),
            contract_ops: FxHashMap::default(),
            affiliate_ops: FxHashMap::default(),
            contract_txs: FxHashMap::default(),
            op_votes: FxHashMap::default(),
            target_assign: FxHashMap::default(),
            assembled: FxHashMap::default(),
            dirty_targets: BTreeSet::new(),
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

    /// Exports the clusterer's full retained state. See
    /// [`ClustererCheckpoint`] for the ordering contract; the operator
    /// membership set and the operator→component index are derivable
    /// from the component records and are rebuilt on restore.
    pub fn checkpoint(&self) -> ClustererCheckpoint {
        fn sorted_map<V: Clone>(map: &FxHashMap<Address, V>) -> Vec<(Address, V)> {
            let mut out: Vec<(Address, V)> =
                map.iter().map(|(&k, v)| (k, v.clone())).collect();
            out.sort_unstable_by_key(|&(k, _)| k);
            out
        }
        let mut comps: Vec<CompCheckpoint> = self
            .comps
            .iter()
            .map(|(&cid, c)| CompCheckpoint {
                cid,
                key: c.key,
                members: c.members.clone(),
                edges: c.edges.clone(),
                phish: c.phish.iter().copied().collect(),
                contracts: c.contracts.iter().copied().collect(),
                affiliates: c.affiliates.iter().copied().collect(),
            })
            .collect();
        comps.sort_unstable_by_key(|c| c.cid);
        let mut direct_edges: Vec<(Address, Address)> =
            self.direct_edges.iter().copied().collect();
        direct_edges.sort_unstable();
        let mut target_assign: Vec<(Target, Cid)> =
            self.target_assign.iter().map(|(&t, &cid)| (t, cid)).collect();
        target_assign.sort_unstable();
        ClustererCheckpoint {
            watermark: self.watermark,
            next_cid: self.next_cid,
            comps,
            direct_edges,
            phish_touch: sorted_map(&self.phish_touch)
                .into_iter()
                .map(|(k, v)| (k, v.into_iter().collect()))
                .collect(),
            contract_ops: sorted_map(&self.contract_ops),
            affiliate_ops: sorted_map(&self.affiliate_ops),
            contract_txs: sorted_map(&self.contract_txs)
                .into_iter()
                .map(|(k, v)| (k, v.into_iter().collect()))
                .collect(),
            op_votes: sorted_map(&self.op_votes)
                .into_iter()
                .map(|(k, v)| (k, v.into_iter().collect()))
                .collect(),
            target_assign,
            dirty_targets: self.dirty_targets.iter().copied().collect(),
            dirty_comps: self.dirty_comps.iter().copied().collect(),
            txs_new: self.txs_new.clone(),
            pending_rebuild: self.pending_rebuild.iter().copied().collect(),
            stats: self.stats,
        }
    }

    /// Rebuilds a clusterer from a checkpoint. The assembled-family
    /// cache starts empty (the next [`Self::clustering`] re-assembles
    /// lazily — identical output, the work counters just attribute the
    /// assemblies to the post-restore snapshot). `classifier` and
    /// `cache` follow the same contract as [`Self::with_cache`].
    pub fn restore(
        classifier: ClassifierConfig,
        cache: Arc<ClassificationCache>,
        ckpt: &ClustererCheckpoint,
    ) -> Self {
        let mut c = Self::with_cache(classifier, cache);
        c.watermark = ckpt.watermark;
        c.next_cid = ckpt.next_cid;
        for comp in &ckpt.comps {
            for &m in &comp.members {
                c.operators.insert(m);
                c.op_comp.insert(m, comp.cid);
            }
            c.comps.insert(
                comp.cid,
                CompState {
                    key: comp.key,
                    members: comp.members.clone(),
                    edges: comp.edges.clone(),
                    phish: comp.phish.iter().copied().collect(),
                    contracts: comp.contracts.iter().copied().collect(),
                    affiliates: comp.affiliates.iter().copied().collect(),
                },
            );
        }
        for &edge in &ckpt.direct_edges {
            c.direct_edges.insert(edge);
        }
        for (k, v) in &ckpt.phish_touch {
            c.phish_touch.insert(*k, v.iter().copied().collect());
        }
        for (k, v) in &ckpt.contract_ops {
            c.contract_ops.insert(*k, v.clone());
        }
        for (k, v) in &ckpt.affiliate_ops {
            c.affiliate_ops.insert(*k, v.clone());
        }
        for (k, v) in &ckpt.contract_txs {
            c.contract_txs.insert(*k, v.iter().copied().collect());
        }
        for (k, v) in &ckpt.op_votes {
            c.op_votes.insert(*k, v.iter().copied().collect());
        }
        for &(t, cid) in &ckpt.target_assign {
            c.target_assign.insert(t, cid);
        }
        c.dirty_targets = ckpt.dirty_targets.iter().copied().collect();
        c.dirty_comps = ckpt.dirty_comps.iter().copied().collect();
        c.txs_new = ckpt.txs_new.clone();
        c.pending_rebuild = ckpt.pending_rebuild.iter().copied().collect();
        c.stats = ckpt.stats;
        c
    }

    /// Ingests one poll: the detector's events plus the transaction
    /// window `[previous watermark, watermark)`. `dataset` must be the
    /// detector's dataset *after* the poll that produced `events`, and
    /// `watermark` the detector's cursor — membership checks follow the
    /// batch-at-watermark semantics.
    pub fn ingest(
        &mut self,
        chain: &Chain,
        labels: &LabelStore,
        dataset: &Dataset,
        events: &[DetectorEvent],
        watermark: TxId,
    ) {
        let lo = self.watermark;
        let hi = watermark.min(chain.transactions().len() as TxId).max(lo);
        self.watermark = hi;
        let _ingest_span =
            daas_obs::span!("cluster.ingest", window = hi - lo, events = events.len());
        let stats_before = self.stats;

        for event in events {
            match event {
                DetectorEvent::ContractAdmitted { contract, .. } => {
                    self.revoke(*contract);
                }
                DetectorEvent::PsTransaction { tx, contract } => {
                    let obs = self
                        .cache
                        .classify(chain, *tx, &self.classifier)
                        .expect("a PsTransaction event classifies positively");
                    self.contract_ops.entry(*contract).or_default().push(obs.operator);
                    self.affiliate_ops.entry(obs.affiliate).or_default().push(obs.operator);
                    let votes = self.op_votes.entry(obs.operator).or_default();
                    votes.insert((T_CONTRACT, *contract));
                    votes.insert((T_AFFILIATE, obs.affiliate));
                    self.dirty_targets.insert((T_CONTRACT, *contract));
                    self.dirty_targets.insert((T_AFFILIATE, obs.affiliate));
                    if self.contract_txs.entry(*contract).or_default().insert(*tx) {
                        self.txs_new.push((*contract, *tx));
                    }
                }
                DetectorEvent::OperatorObserved(op) => {
                    self.revoke(*op);
                    self.admit_operator(chain, labels, dataset, *op);
                }
                DetectorEvent::AffiliateObserved(aff) => {
                    self.revoke(*aff);
                }
            }
        }

        // Window scan: only the new transactions, and among those only
        // the ones touching an operator — enumerated from the per-address
        // history index (each operator's slice is in chain order) rather
        // than walking the whole window. An operator admitted mid-poll
        // already scanned its full history above, so together the two
        // scans cover exactly what the batch extract sees at this
        // watermark.
        let mut op_txs: Vec<TxId> = Vec::new();
        for &op in &self.operators {
            let hist = chain.txs_of(op);
            for &txid in &hist[hist.partition_point(|&t| t < lo)..] {
                if txid >= hi {
                    break;
                }
                op_txs.push(txid);
            }
        }
        op_txs.sort_unstable();
        op_txs.dedup();
        for txid in op_txs {
            let tx = chain.tx(txid);
            let touched = tx.touched_addresses();
            let mut ops_in: Vec<Address> =
                touched.iter().copied().filter(|a| self.operators.contains(a)).collect();
            ops_in.sort_unstable();
            ops_in.dedup();
            for (i, &a) in ops_in.iter().enumerate() {
                for &b in &ops_in[i + 1..] {
                    self.add_edge(a, b);
                }
            }
            if !ops_in.is_empty() {
                for &party in &touched {
                    if !self.operators.contains(&party)
                        && is_labeled_phishing(labels, party)
                        && !dataset.contains(party)
                    {
                        for i in 0..ops_in.len() {
                            self.add_phish_touch(party, ops_in[i]);
                        }
                    }
                }
            }
        }

        // Scoped rebuilds, after the window scan so they see the final
        // edge state (the partition depends only on the edge set).
        let pending = std::mem::take(&mut self.pending_rebuild);
        for cid in pending {
            self.scoped_rebuild(cid);
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
    fn admit_operator(&mut self, chain: &Chain, labels: &LabelStore, dataset: &Dataset, op: Address) {
        if !self.operators.insert(op) {
            return;
        }
        let cid = self.next_cid;
        self.next_cid += 1;
        self.comps.insert(
            cid,
            CompState {
                key: op,
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
        for &txid in chain.txs_of(op) {
            if txid >= self.watermark {
                break;
            }
            let tx = chain.tx(txid);
            for party in tx.touched_addresses() {
                if party == op {
                    continue;
                }
                if self.operators.contains(&party) {
                    self.add_edge(op, party);
                } else if is_labeled_phishing(labels, party) && !dataset.contains(party) {
                    self.add_phish_touch(party, op);
                }
            }
        }
    }

    fn add_edge(&mut self, a: Address, b: Address) {
        let key = if a < b { (a, b) } else { (b, a) };
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

    fn add_phish_touch(&mut self, party: Address, op: Address) {
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
    fn revoke(&mut self, address: Address) {
        let Some(set) = self.phish_touch.remove(&address) else { return };
        if let Some(first) = set.iter().next() {
            if let Some(&cid) = self.op_comp.get(first) {
                if let Some(comp) = self.comps.get_mut(&cid) {
                    comp.phish.remove(&address);
                }
                self.pending_rebuild.insert(cid);
            }
        }
    }

    /// Re-partitions one component over its own retained edges after a
    /// revocation. If the partition is unchanged the component is kept
    /// as-is; a split allocates fresh ids for every part (stale
    /// assignments are tombstoned) and dirties all its targets.
    fn scoped_rebuild(&mut self, cid: Cid) {
        let Some(comp) = self.comps.get(&cid).cloned() else { return };
        self.stats.rebuilds += 1;
        let mut uf = UnionFind::new();
        for &m in &comp.members {
            uf.insert(m);
        }
        for &(a, b) in &comp.edges {
            uf.union(a, b);
        }
        for p in &comp.phish {
            if let Some(set) = self.phish_touch.get(p) {
                let chain: Vec<Address> = set.iter().copied().collect();
                for pair in chain.windows(2) {
                    uf.union(pair[0], pair[1]);
                }
            }
        }
        let parts = uf.components();
        if parts.len() <= 1 {
            return;
        }
        self.comps.remove(&cid);
        self.assembled.remove(&cid);
        self.dirty_comps.remove(&cid);
        for &c in &comp.contracts {
            self.target_assign.remove(&(T_CONTRACT, c));
            self.dirty_targets.insert((T_CONTRACT, c));
        }
        for &a in &comp.affiliates {
            self.target_assign.remove(&(T_AFFILIATE, a));
            self.dirty_targets.insert((T_AFFILIATE, a));
        }
        for part in parts {
            let ncid = self.next_cid;
            self.next_cid += 1;
            let part_set: HashSet<Address> = part.iter().copied().collect();
            let edges: Vec<(Address, Address)> =
                comp.edges.iter().copied().filter(|&(a, _)| part_set.contains(&a)).collect();
            let phish: BTreeSet<Address> = comp
                .phish
                .iter()
                .copied()
                .filter(|p| {
                    self.phish_touch
                        .get(p)
                        .and_then(|s| s.iter().next())
                        .is_some_and(|m| part_set.contains(m))
                })
                .collect();
            for &m in &part {
                self.op_comp.insert(m, ncid);
            }
            self.dirty_comps.insert(ncid);
            self.comps.insert(
                ncid,
                CompState {
                    key: part[0],
                    members: part,
                    edges,
                    phish,
                    contracts: BTreeSet::new(),
                    affiliates: BTreeSet::new(),
                },
            );
        }
    }

    /// Recomputes one target's majority vote and moves it between
    /// component assignment sets when the winner changed. The winner is
    /// the component with the most votes, ties to the smallest key —
    /// identical to the batch rule (batch components are index-sorted
    /// by smallest member, so smaller index ⟺ smaller key).
    ///
    /// The component that lost the target is structurally dirty; the
    /// one that gained it is returned instead, because a gain alone can
    /// be patched into its cached family.
    fn revote_target(&mut self, t: Target) -> Option<Cid> {
        let (kind, addr) = t;
        let new_cid = {
            let ops: &[Address] = match if kind == T_CONTRACT {
                self.contract_ops.get(&addr)
            } else {
                self.affiliate_ops.get(&addr)
            } {
                Some(v) => v.as_slice(),
                None => &[],
            };
            let mut counts: HashMap<Cid, usize> = HashMap::new();
            for op in ops {
                if let Some(&cid) = self.op_comp.get(op) {
                    *counts.entry(cid).or_default() += 1;
                }
            }
            let comps = &self.comps;
            counts
                .into_iter()
                .max_by_key(|&(cid, n)| {
                    (n, std::cmp::Reverse(comps.get(&cid).expect("voted comps are live").key))
                })
                .map(|(cid, _)| cid)
        };
        let old_cid = self.target_assign.get(&t).copied();
        if old_cid == new_cid {
            return None;
        }
        if let Some(oc) = old_cid {
            if let Some(comp) = self.comps.get_mut(&oc) {
                if kind == T_CONTRACT {
                    comp.contracts.remove(&addr);
                } else {
                    comp.affiliates.remove(&addr);
                }
                self.dirty_comps.insert(oc);
            }
        }
        match new_cid {
            Some(nc) => {
                let comp = self.comps.get_mut(&nc).expect("vote winner is live");
                if kind == T_CONTRACT {
                    comp.contracts.insert(addr);
                } else {
                    comp.affiliates.insert(addr);
                }
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
    /// `labels` must be the same (immutable) store every ingest saw —
    /// cached names assume it.
    pub fn clustering(&mut self, labels: &LabelStore) -> Clustering {
        let _snapshot_span = daas_obs::span!("cluster.snapshot");
        let stats_before = self.stats;

        // 1. Settle the dirty vote assignments, collecting what each
        //    winning component gained.
        let mut patches: BTreeMap<Cid, Patch> = BTreeMap::new();
        let dirty_targets = std::mem::take(&mut self.dirty_targets);
        for t in dirty_targets {
            let Some(cid) = self.revote_target(t) else { continue };
            let patch = patches.entry(cid).or_default();
            match t {
                (T_CONTRACT, c) => {
                    patch.contracts.push(c);
                    if let Some(txs) = self.contract_txs.get(&c) {
                        patch.txs.extend(txs.iter().copied());
                    }
                }
                (_, a) => patch.affiliates.push(a),
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
            let mut operators = comp.members.clone();
            operators.sort_unstable();
            let contracts: Vec<Address> = comp.contracts.iter().copied().collect();
            let affiliates: Vec<Address> = comp.affiliates.iter().copied().collect();
            // Per-contract sets are disjoint, so a flat collect + sort
            // is the union (and much cheaper than a B-tree merge).
            let mut ps_txs: Vec<TxId> = Vec::new();
            for ct in &contracts {
                if let Some(txs) = self.contract_txs.get(ct) {
                    ps_txs.extend(txs.iter().copied());
                }
            }
            ps_txs.sort_unstable();
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
    use crate::families::cluster;
    use daas_chain::{ContractKind, EntryStyle, Label, LabelCategory, LabelSource, ProfitSharingSpec};
    use daas_detector::Admission;
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
        online.ingest(&chain, &labels, &dataset, &events_for(&dataset), watermark);
        let live = online.clustering(&labels);
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
        online.ingest(&chain, &labels, &dataset, &events_for(&dataset), watermark);
        let first = json(&online.clustering(&labels));
        assert_eq!(online.stats().families_reused, 0);
        let again = json(&online.clustering(&labels));
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
        online.ingest(&chain, &labels, &dataset, &events_for(&dataset), watermark);
        let first = online.clustering(&labels);
        let second = online.clustering(&labels);
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
        online.ingest(&chain, &labels, &dataset, &events_for(&dataset), watermark);
        online.clustering(&labels);

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
        online.ingest(&chain, &labels, &dataset, &events, chain.transactions().len() as TxId);

        let reused_before = online.stats().families_reused;
        let patched_before = online.stats().families_patched;
        let assembled_before = online.stats().families_assembled;
        let live = online.clustering(&labels);
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
            online.ingest(chain, &labels, dataset, events, watermark);
            let live = online.clustering(&labels);
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
        online.ingest(&chain, &labels, &dataset, &events_for(&dataset), watermark);
        let merged = online.clustering(&labels);
        assert_eq!(merged.families.len(), 1, "shared phish account merges everything");
        assert_eq!(
            json(&merged),
            json(&cluster(&chain, &labels, &dataset))
        );

        // The phish account now joins the dataset as an affiliate: the
        // batch rule no longer counts its touches, so the live state
        // must split back apart.
        dataset.affiliates.insert(phish);
        online.ingest(
            &chain,
            &labels,
            &dataset,
            &[DetectorEvent::AffiliateObserved(phish)],
            watermark,
        );
        assert_eq!(online.stats().rebuilds, 1);
        let split = online.clustering(&labels);
        assert_eq!(split.families.len(), 2, "A+B stay merged, C splits off");
        assert_eq!(
            json(&split),
            json(&cluster(&chain, &labels, &dataset))
        );
    }

    #[test]
    fn empty_feed_clusters_to_nothing() {
        let chain = Chain::new();
        let labels = LabelStore::new();
        let mut online = OnlineClusterer::new(ClassifierConfig::default());
        online.ingest(&chain, &labels, &Dataset::default(), &[], 0);
        assert!(online.clustering(&labels).families.is_empty());
        assert_eq!(online.watermark(), 0);
    }
}
