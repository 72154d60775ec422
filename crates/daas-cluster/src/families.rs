//! Step 1 + 2 of §7.1: operator clustering and member grouping.
//!
//! The clustering runs in three sequential phases (DESIGN.md §8):
//!
//! 1. **Extract** — scan every operator's history for operator↔operator
//!    union candidates and (labeled-phish account, operator) touches.
//! 2. **Merge** — fold the candidates into a deterministic union-find.
//!    The final partition depends only on the edge *set*, and
//!    `components()` returns address-sorted output.
//! 3. **Assemble** — group contracts and affiliates under their
//!    operators' component, name each family and sort the families.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use daas_chain::{Chain, LabelCategory, LabelStore, TxId};
use daas_detector::Dataset;
use eth_types::Address;
use serde::{Deserialize, Serialize};
use txgraph::UnionFind;

/// One clustered DaaS family.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Family {
    /// Dense id, ordered by name for determinism.
    pub id: usize,
    /// Explorer label if any member carries one, else the first six hex
    /// digits of the lead operator account.
    pub name: String,
    /// Operator accounts, sorted.
    pub operators: Vec<Address>,
    /// Profit-sharing contracts, sorted.
    pub contracts: Vec<Address>,
    /// Affiliate accounts, sorted.
    pub affiliates: Vec<Address>,
    /// Profit-sharing transactions attributed to this family.
    pub ps_txs: Vec<TxId>,
}

impl Family {
    /// Total member accounts.
    pub fn account_count(&self) -> usize {
        self.operators.len() + self.contracts.len() + self.affiliates.len()
    }

    /// The sorted member list of one role.
    pub fn members(&self, role: Role) -> &[Address] {
        match role {
            Role::Operator => &self.operators,
            Role::Contract => &self.contracts,
            Role::Affiliate => &self.affiliates,
        }
    }
}

/// A family member list: the role a member account plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// [`Family::operators`].
    Operator,
    /// [`Family::contracts`].
    Contract,
    /// [`Family::affiliates`].
    Affiliate,
}

/// Id of the family that lists `address` under one of `roles`, by a
/// binary search of each family's sorted list. Per role the first
/// family in slice order wins; across roles, the higher id. An address
/// sits under one role in at most one family, so this is the family
/// with the highest id among all that list it under those roles.
pub fn family_holding(
    families: &[Arc<Family>],
    address: Address,
    roles: impl IntoIterator<Item = Role>,
) -> Option<usize> {
    roles
        .into_iter()
        .filter_map(|role| {
            families.iter().find(|f| f.members(role).binary_search(&address).is_ok())
        })
        .map(|f| f.id)
        .max()
}

/// The clustering result. Families are `Arc`-shared: the streaming
/// clusterer hands out the same allocation across successive snapshots
/// for untouched families, so cloning a `Clustering` (or snapshotting
/// the live state) never deep-copies member vectors.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Clustering {
    /// Families sorted by transaction count descending (the dominant
    /// families first).
    pub families: Vec<Arc<Family>>,
}

impl Clustering {
    /// Family index that contains the address (any role; see
    /// [`family_holding`]).
    pub fn family_of(&self, address: Address) -> Option<usize> {
        family_holding(&self.families, address, [Role::Operator, Role::Contract, Role::Affiliate])
    }

    /// Family lookup by name.
    pub fn by_name(&self, name: &str) -> Option<&Family> {
        self.families.iter().find(|f| f.name == name).map(|f| &**f)
    }

    /// Per-family member-account sets (operators + contracts +
    /// affiliates), sorted and deduped — the plain-data shape
    /// `daas_detector::pairwise_family_scores` consumes for
    /// family-assignment scoring.
    pub fn member_sets(&self) -> Vec<Vec<Address>> {
        self.families
            .iter()
            .map(|f| {
                let mut v: Vec<Address> = f
                    .operators
                    .iter()
                    .chain(&f.contracts)
                    .chain(&f.affiliates)
                    .copied()
                    .collect();
                v.sort_unstable();
                v.dedup();
                v
            })
            .collect()
    }
}

/// Accepted by [`cluster_with`] and ignored: clustering is sequential.
/// Kept so code written against the earlier threaded API still builds;
/// new callers use [`cluster`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Ignored.
    pub threads: usize,
}

impl ClusterConfig {
    /// `threads: 1`; the same clustering as every other value.
    pub fn sequential() -> Self {
        ClusterConfig { threads: 1 }
    }
}

/// Union candidates from the operators' histories: direct
/// operator↔operator edges, and (labeled phish account, operator)
/// touches whose chains are materialised at merge time.
#[derive(Debug, Default)]
struct Edges {
    unions: Vec<(Address, Address)>,
    phish_touches: Vec<(Address, Address)>,
}

/// Scans the operators' histories for union candidates. Only
/// transactions below `watermark` participate (histories are
/// ascending, so the scan stops early); the full-chain case passes
/// `TxId::MAX`.
fn extract_edges(
    chain: &Chain,
    ops: &[Address],
    op_set: &HashSet<Address>,
    labels: &LabelStore,
    dataset: &Dataset,
    watermark: TxId,
) -> Edges {
    let mut edges = Edges::default();
    for &op in ops {
        for &txid in chain.txs_of(op) {
            if txid >= watermark {
                break;
            }
            let tx = chain.tx(txid);
            for party in tx.touched_addresses() {
                if party == op {
                    continue;
                }
                if op_set.contains(&party) {
                    edges.unions.push((op, party));
                } else if is_labeled_phishing(labels, party) && !dataset.contains(party) {
                    edges.phish_touches.push((party, op));
                }
            }
        }
    }
    edges
}

/// Clusters the dataset into families (§7.1) over the whole chain. See
/// the module docs for the phase structure.
pub fn cluster(chain: &Chain, labels: &LabelStore, dataset: &Dataset) -> Clustering {
    cluster_prefix(chain, labels, dataset, TxId::MAX)
}

/// [`cluster`], ignoring `cfg` — the signature of the earlier threaded
/// API, kept for code still written against it.
pub fn cluster_with(
    chain: &Chain,
    labels: &LabelStore,
    dataset: &Dataset,
    _cfg: &ClusterConfig,
) -> Clustering {
    cluster(chain, labels, dataset)
}

/// Clusters the dataset against the chain prefix `[0, watermark)` —
/// the batch oracle the streaming [`crate::OnlineClusterer`] is proven
/// against at every poll boundary. The dataset must itself be
/// watermark-consistent (e.g. `OnlineDetector::dataset()` after
/// `poll_until(watermark)`); [`cluster`] is the full-chain case.
pub fn cluster_prefix(
    chain: &Chain,
    labels: &LabelStore,
    dataset: &Dataset,
    watermark: TxId,
) -> Clustering {
    let operators: Vec<Address> = dataset.operators.iter().copied().collect();
    let op_set: HashSet<Address> = operators.iter().copied().collect();
    let _cluster_span = daas_obs::span!("cluster.batch", operators = operators.len());

    // ---- Step 1, extract phase: union candidates. ----
    let extract_span = daas_obs::span!("cluster.extract");
    let edges = extract_edges(chain, &operators, &op_set, labels, dataset, watermark);
    drop(extract_span);
    daas_obs::add("cluster.edge_candidates", edges.unions.len() as u64);
    daas_obs::add("cluster.phish_touches", edges.phish_touches.len() as u64);

    // ---- Step 1, merge phase: deterministic union-find. ----
    let merge_span = daas_obs::span!("cluster.merge");
    let mut uf = UnionFind::new();
    for &op in &operators {
        uf.insert(op);
    }
    for &(op, party) in &edges.unions {
        uf.union(op, party);
    }
    let mut phish_touch: HashMap<Address, Vec<Address>> = HashMap::new();
    for &(party, op) in &edges.phish_touches {
        phish_touch.entry(party).or_default().push(op);
    }
    for (_, ops) in phish_touch {
        for pair in ops.windows(2) {
            uf.union(pair[0], pair[1]);
        }
    }

    // ---- Step 2: group contracts and affiliates by operator. ----
    // A contract's operators are those observed in its profit-sharing
    // transactions; affiliates follow the operators they split with.
    let mut contract_ops: HashMap<Address, Vec<Address>> = HashMap::new();
    let mut affiliate_ops: HashMap<Address, Vec<Address>> = HashMap::new();
    for obs in &dataset.observations {
        contract_ops.entry(obs.contract).or_default().push(obs.operator);
        affiliate_ops.entry(obs.affiliate).or_default().push(obs.operator);
    }

    drop(merge_span);

    let _assemble_span = daas_obs::span!("cluster.assemble");
    let components = uf.components();
    let mut op_component: HashMap<Address, usize> = HashMap::new();
    for (ci, comp) in components.iter().enumerate() {
        for &op in comp {
            op_component.insert(op, ci);
        }
    }

    let vote = |ops: &[Address]| vote_component(ops, &op_component);

    let mut fam_contracts: Vec<BTreeSet<Address>> = vec![BTreeSet::new(); components.len()];
    let mut fam_affiliates: Vec<BTreeSet<Address>> = vec![BTreeSet::new(); components.len()];
    let mut fam_txs: Vec<BTreeSet<TxId>> = vec![BTreeSet::new(); components.len()];
    let mut contract_family: HashMap<Address, usize> = HashMap::new();

    for (&contract, ops) in &contract_ops {
        if let Some(c) = vote(ops) {
            fam_contracts[c].insert(contract);
            contract_family.insert(contract, c);
        }
    }
    for (&aff, ops) in &affiliate_ops {
        if let Some(c) = vote(ops) {
            fam_affiliates[c].insert(aff);
        }
    }
    for obs in &dataset.observations {
        if let Some(&c) = contract_family.get(&obs.contract) {
            fam_txs[c].insert(obs.tx);
        }
    }

    // ---- Naming and assembly. ----
    let mut families: Vec<Family> = components
        .into_iter()
        .enumerate()
        .map(|(ci, ops)| {
            let contracts: Vec<Address> = fam_contracts[ci].iter().copied().collect();
            let affiliates: Vec<Address> = fam_affiliates[ci].iter().copied().collect();
            let ps_txs: Vec<TxId> = fam_txs[ci].iter().copied().collect();
            let name = family_name(labels, &ops, &contracts);
            Family {
                id: 0, // assigned after sorting
                name,
                operators: ops,
                contracts,
                affiliates,
                ps_txs,
            }
        })
        .collect();

    // Dominant families first (by transaction count, then name).
    families.sort_by(|a, b| b.ps_txs.len().cmp(&a.ps_txs.len()).then_with(|| a.name.cmp(&b.name)));
    for (i, f) in families.iter_mut().enumerate() {
        f.id = i;
    }
    Clustering { families: families.into_iter().map(Arc::new).collect() }
}

/// Majority vote across a member's associated operators (ties go to the
/// smaller component index for determinism). Shared by the batch
/// assembly above and the streaming [`crate::OnlineClusterer`] so the
/// assignment rule is never forked.
pub(crate) fn vote_component(
    ops: &[Address],
    op_component: &HashMap<Address, usize>,
) -> Option<usize> {
    let mut counts: BTreeMap<usize, usize> = BTreeMap::new();
    for op in ops {
        if let Some(&c) = op_component.get(op) {
            *counts.entry(c).or_default() += 1;
        }
    }
    counts.into_iter().max_by_key(|&(c, n)| (n, usize::MAX - c)).map(|(c, _)| c)
}

pub(crate) fn is_labeled_phishing(labels: &LabelStore, address: Address) -> bool {
    labels
        .labels_of(address)
        .iter()
        .any(|l| matches!(l.category, LabelCategory::Phishing | LabelCategory::DrainerFamily))
}

/// The paper's naming rule: an explorer family label on any member wins;
/// otherwise the first six hex digits of the lead operator.
pub(crate) fn family_name(labels: &LabelStore, operators: &[Address], contracts: &[Address]) -> String {
    for &member in operators.iter().chain(contracts) {
        if let Some(name) = labels.family_name(member) {
            return name.to_owned();
        }
    }
    operators
        .first()
        .map(|o| o.prefix6())
        .unwrap_or_else(|| "<unknown>".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use daas_chain::{ContractKind, EntryStyle, Label, LabelSource, ProfitSharingSpec};
    use eth_types::units::ether;

    /// Two operators linked by a direct transfer, a third linked to
    /// nobody: expect two families.
    fn setup() -> (Chain, LabelStore, Dataset, [Address; 3]) {
        let mut chain = Chain::new();
        let mut labels = LabelStore::new();
        let op_a = chain.create_eoa_funded(b"opA", ether(10)).unwrap();
        let op_b = chain.create_eoa_funded(b"opB", ether(10)).unwrap();
        let op_c = chain.create_eoa_funded(b"opC", ether(10)).unwrap();

        let mut dataset = Dataset::default();
        let mk_contract = |chain: &mut Chain, op: Address, aff_seed: &[u8]| {
            let aff = chain.create_eoa(aff_seed).unwrap();
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
            (contract, aff, obs)
        };

        for (op, seed) in [(op_a, b"aff-a".as_slice()), (op_b, b"aff-b"), (op_c, b"aff-c")] {
            let (_, _, obs) = mk_contract(&mut chain, op, seed);
            dataset.absorb(obs);
        }
        dataset.operators.extend([op_a, op_b, op_c]);

        // Link A and B directly.
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

    #[test]
    fn direct_transfer_merges_operators() {
        let (chain, labels, dataset, [op_a, op_b, op_c]) = setup();
        let clustering = cluster(&chain, &labels, &dataset);
        assert_eq!(clustering.families.len(), 2);
        let fam_ab = clustering.family_of(op_a).unwrap();
        assert_eq!(clustering.family_of(op_b), Some(fam_ab));
        assert_ne!(clustering.family_of(op_c), Some(fam_ab));
    }

    #[test]
    fn labeled_family_name_wins_and_prefix_fallback() {
        let (chain, labels, dataset, [_, _, op_c]) = setup();
        let clustering = cluster(&chain, &labels, &dataset);
        assert!(clustering.by_name("Angel Drainer").is_some());
        // The singleton family is named by operator prefix.
        let fam_c = &clustering.families[clustering.family_of(op_c).unwrap()];
        assert_eq!(fam_c.name, op_c.prefix6());
    }

    #[test]
    fn members_follow_their_operator() {
        let (chain, labels, dataset, [op_a, ..]) = setup();
        let clustering = cluster(&chain, &labels, &dataset);
        let fam = &clustering.families[clustering.family_of(op_a).unwrap()];
        // Two operators → two contracts, two affiliates, two txs.
        assert_eq!(fam.operators.len(), 2);
        assert_eq!(fam.contracts.len(), 2);
        assert_eq!(fam.affiliates.len(), 2);
        assert_eq!(fam.ps_txs.len(), 2);
        assert_eq!(fam.account_count(), 6);
    }

    #[test]
    fn shared_labeled_phish_account_merges() {
        let (mut chain, mut labels, dataset, [op_a, _, op_c]) = setup();
        // op_a and op_c both touch an old labeled phishing EOA.
        let phish = chain.create_eoa(b"old-phish").unwrap();
        labels.add_phishing(phish, LabelSource::Etherscan, "Fake_Phishing123");
        chain.advance(12);
        chain.transfer_eth(op_a, phish, ether(1)).unwrap();
        chain.transfer_eth(op_c, phish, ether(1)).unwrap();
        let clustering = cluster(&chain, &labels, &dataset);
        assert_eq!(clustering.families.len(), 1, "shared phish account must merge all");
    }

    #[test]
    fn unlabeled_shared_counterparty_does_not_merge() {
        let (mut chain, labels, dataset, [op_a, _, op_c]) = setup();
        // Both touch the same *unlabeled* account (e.g. a CEX deposit
        // address): no merge.
        let shared = chain.create_eoa(b"plain-shared").unwrap();
        chain.advance(12);
        chain.transfer_eth(op_a, shared, ether(1)).unwrap();
        chain.transfer_eth(op_c, shared, ether(1)).unwrap();
        let clustering = cluster(&chain, &labels, &dataset);
        assert_eq!(clustering.families.len(), 2);
    }

    #[test]
    fn families_sorted_by_tx_count() {
        let (chain, labels, dataset, _) = setup();
        let clustering = cluster(&chain, &labels, &dataset);
        assert!(clustering.families[0].ps_txs.len() >= clustering.families[1].ps_txs.len());
        assert_eq!(clustering.families[0].id, 0);
    }

    #[test]
    fn empty_dataset_clusters_to_nothing() {
        let chain = Chain::new();
        let labels = LabelStore::new();
        let clustering = cluster(&chain, &labels, &Dataset::default());
        assert!(clustering.families.is_empty());
        assert_eq!(clustering.family_of(Address::ZERO), None);
    }
}
