//! Step 1 + 2 of §7.1: operator clustering and member grouping.
//!
//! The clustering runs in three sequential phases on interned ids
//! (DESIGN.md §8):
//!
//! 1. **Extract** — scan the operators' histories, merged into chain
//!    order, as the touched ids of each transaction, for
//!    operator↔operator union candidates and (labeled-phish account,
//!    operator) touches. Each party is checked against one role-mark
//!    byte per interned address.
//! 2. **Merge** — fold the candidates into a deterministic union-find
//!    over the operators, resolving a party's address only for an edge.
//!    The final partition depends only on the edge *set*, and
//!    `components()` returns address-sorted output.
//! 3. **Assemble** — sort the observations' (contract, component) and
//!    (affiliate, component) votes, give each run of one member to the
//!    component its vote picks, name each family and sort the families.

use std::sync::Arc;

use daas_chain::{Chain, LabelCategory, LabelStore, TxId};
use daas_detector::Dataset;
use eth_types::{AddrId, AddrRanks, Address};
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

/// Mark bits of [`extract_edges`]' one byte per interned address: a
/// dataset operator.
const OPERATOR: u8 = 1;
/// A contract or affiliate of the dataset.
const MEMBER: u8 = 2;
/// Carries an explorer phishing or drainer-family label.
const PHISH: u8 = 4;

/// Union candidates from the operators' histories, with operators as
/// indices into the sorted operator list and other parties as ids.
#[derive(Debug, Default)]
struct Edges {
    /// (operator, another operator it transacted with).
    unions: Vec<(u32, AddrId)>,
    /// (labeled phish account outside the dataset, operator touching it).
    phish_touches: Vec<(AddrId, u32)>,
    /// Operator history entries scanned.
    history_entries: u64,
}

/// Scans the operators' histories for union candidates. Each party is
/// checked against one mark byte per interned address, built here from
/// the dataset and the labels. The histories are walked as one set of
/// transactions, in chain order, so the scan reads the arena front to
/// back; a transaction in several operators' histories counts as an
/// entry of each. Only transactions below `watermark` participate. An
/// operator the chain never interned has no history and no edges.
fn extract_edges(
    chain: &Chain,
    labels: &LabelStore,
    dataset: &Dataset,
    operators: &[Address],
    watermark: TxId,
) -> Edges {
    let store = chain.transactions();
    let mut marks = vec![0u8; store.interner().len()];
    let mut mark = |address: Address, bit: u8| {
        if let Some(id) = chain.addr_id(address) {
            marks[id.index()] |= bit;
        }
    };
    for &member in dataset.contracts.iter().chain(&dataset.affiliates) {
        mark(member, MEMBER);
    }
    for &op in operators {
        mark(op, OPERATOR);
    }
    for address in labels.addresses() {
        if is_labeled_phishing(labels, address) {
            mark(address, PHISH);
        }
    }

    // Each interned operator's id and index in the sorted operator list,
    // and one bit per transaction of any operator's history.
    let mut op_index: Vec<(AddrId, u32)> = operators
        .iter()
        .enumerate()
        .filter_map(|(oi, &op)| Some((chain.addr_id(op)?, oi as u32)))
        .collect();
    op_index.sort_unstable();
    let end = store.len().min(watermark as usize);
    let mut in_history = vec![0u64; end.div_ceil(64)];
    for &(op, _) in &op_index {
        for &txid in chain.txs_of_id(op) {
            match in_history.get_mut(txid as usize / 64) {
                Some(word) if (txid as usize) < end => *word |= 1 << (txid % 64),
                _ => break,
            }
        }
    }

    let mut edges = Edges::default();
    let (mut touched, mut ops_in) = (Vec::new(), Vec::new());
    for (w, &word) in in_history.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let txid = (w * 64) as TxId + bits.trailing_zeros();
            bits &= bits - 1;
            store.touched_ids_into(txid, &mut touched);
            // The operators whose history holds this transaction.
            ops_in.clear();
            ops_in.extend(touched.iter().copied().filter(|p| marks[p.index()] & OPERATOR != 0));
            edges.history_entries += ops_in.len() as u64;
            for &op in &ops_in {
                let at = op_index.binary_search_by_key(&op, |&(id, _)| id);
                let oi = op_index[at.expect("marked operators are indexed")].1;
                for &party in &touched {
                    let m = marks[party.index()];
                    if party == op || m == 0 {
                        continue;
                    }
                    if m & OPERATOR != 0 {
                        edges.unions.push((oi, party));
                    } else if m & (PHISH | MEMBER) == PHISH {
                        edges.phish_touches.push((party, oi));
                    }
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
    let _cluster_span = daas_obs::span!("cluster.batch", operators = operators.len());

    // ---- Step 1, extract phase: union candidates. ----
    let extract_span = daas_obs::span!("cluster.extract");
    let mut edges = extract_edges(chain, labels, dataset, &operators, watermark);
    drop(extract_span);
    daas_obs::add("cluster.history_entries", edges.history_entries);
    daas_obs::add("cluster.edge_candidates", edges.unions.len() as u64);
    daas_obs::add("cluster.phish_touches", edges.phish_touches.len() as u64);

    // ---- Step 1, merge phase: deterministic union-find. ----
    let merge_span = daas_obs::span!("cluster.merge");
    let mut uf = UnionFind::new();
    for &op in &operators {
        uf.insert(op);
    }
    for &(oi, party) in &edges.unions {
        uf.union(operators[oi as usize], chain.resolve_addr(party));
    }
    // Operators touching the same labeled phish account chain together.
    edges.phish_touches.sort_unstable();
    for pair in edges.phish_touches.windows(2) {
        if pair[0].0 == pair[1].0 {
            uf.union(operators[pair[0].1 as usize], operators[pair[1].1 as usize]);
        }
    }
    let components = uf.components();
    drop(merge_span);

    // ---- Step 2: group contracts and affiliates by operator. ----
    // A contract's operators are those observed in its profit-sharing
    // transactions; affiliates follow the operators they split with.
    let _assemble_span = daas_obs::span!("cluster.assemble");
    let mut op_component = vec![0u32; operators.len()];
    for (ci, comp) in components.iter().enumerate() {
        for op in comp {
            let oi = operators.binary_search(op).expect("components hold only operators");
            op_component[oi] = ci as u32;
        }
    }
    // One pass over the (wide) observations ranks their three roles.
    let observations = &dataset.observations;
    let (mut vote_ops, mut contracts, mut affiliates) =
        (AddrRanks::default(), AddrRanks::default(), AddrRanks::default());
    for obs in observations {
        vote_ops.push(obs.operator);
        contracts.push(obs.contract);
        affiliates.push(obs.affiliate);
    }
    let (vote_ops, operator_of) = vote_ops.finish();
    let (contracts, contract_of) = contracts.finish();
    let (affiliates, affiliate_of) = affiliates.finish();
    // Each observation votes for its operator's component.
    let operator_vote: Vec<u32> = vote_ops
        .iter()
        .map(|op| operators.binary_search(op).map_or(NO_VOTE, |oi| op_component[oi]))
        .collect();
    let obs_components: Vec<u32> = operator_of.iter().map(|&r| operator_vote[r as usize]).collect();
    let contract_family = assign(&contract_of, &obs_components, contracts.len());
    let affiliate_family = assign(&affiliate_of, &obs_components, affiliates.len());

    // Ranks are in address order, so each member list comes out sorted;
    // a contract's transactions follow the contract.
    let mut fam_contracts: Vec<Vec<Address>> = vec![Vec::new(); components.len()];
    let mut fam_affiliates: Vec<Vec<Address>> = vec![Vec::new(); components.len()];
    let mut fam_txs: Vec<Vec<TxId>> = vec![Vec::new(); components.len()];
    for (&contract, &c) in contracts.iter().zip(&contract_family) {
        if c != NO_VOTE {
            fam_contracts[c as usize].push(contract);
        }
    }
    for (&affiliate, &c) in affiliates.iter().zip(&affiliate_family) {
        if c != NO_VOTE {
            fam_affiliates[c as usize].push(affiliate);
        }
    }
    for (obs, &rank) in observations.iter().zip(&contract_of) {
        let c = contract_family[rank as usize];
        if c != NO_VOTE {
            fam_txs[c as usize].push(obs.tx);
        }
    }

    // ---- Naming and assembly. ----
    let mut families: Vec<Family> = components
        .into_iter()
        .zip(fam_contracts.into_iter().zip(fam_affiliates).zip(fam_txs))
        .map(|(ops, ((contracts, affiliates), mut ps_txs))| {
            ps_txs.sort_unstable();
            ps_txs.dedup();
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

/// The vote of an operator outside every component (not in the dataset).
const NO_VOTE: u32 = u32::MAX;

/// The §7.1 vote rule, for the batch assembly (`assign`) and the live
/// re-vote (`OnlineClusterer::revote_target`) alike: of `tally`'s
/// distinct keys, each with its vote count, the one with the most votes
/// wins and a tie goes to the smaller key; `None` when `tally` is
/// empty.
pub(crate) fn vote_winner<K: Ord>(tally: impl IntoIterator<Item = (K, u64)>) -> Option<K> {
    tally
        .into_iter()
        .max_by(|(ka, na), (kb, nb)| na.cmp(nb).then_with(|| kb.cmp(ka)))
        .map(|(key, _)| key)
}

/// The component each of `members` ranks is assigned to by its
/// observations' votes (`member_of[i]` casts `votes[i]`), or `NO_VOTE`,
/// by [`vote_winner`] over component indices (components are sorted by
/// first operator); `NO_VOTE`s count for nobody.
fn assign(member_of: &[u32], votes: &[u32], members: usize) -> Vec<u32> {
    let mut ballots: Vec<u64> = member_of
        .iter()
        .zip(votes)
        .filter(|&(_, &c)| c != NO_VOTE)
        .map(|(&m, &c)| u64::from(m) << 32 | u64::from(c))
        .collect();
    ballots.sort_unstable();
    let mut winner = vec![NO_VOTE; members];
    for member in ballots.chunk_by(|a, b| a >> 32 == b >> 32) {
        let tally = member.chunk_by(|a, b| a == b).map(|run| (run[0] as u32, run.len() as u64));
        winner[(member[0] >> 32) as usize] = vote_winner(tally).unwrap_or(NO_VOTE);
    }
    winner
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

    /// An operator the chain never interned (a hand-built dataset can
    /// name one) has no history, so no edges: it forms its own family.
    #[test]
    fn operator_without_history_is_a_singleton_family() {
        let (chain, labels, mut dataset, [op_a, ..]) = setup();
        let ghost = Address([0x42; 20]);
        assert_eq!(chain.addr_id(ghost), None);
        dataset.operators.insert(ghost);
        let clustering = cluster(&chain, &labels, &dataset);
        assert_eq!(clustering.families.len(), 3);
        let fam = &clustering.families[clustering.family_of(ghost).expect("ghost has a family")];
        assert_eq!(fam.operators, vec![ghost]);
        assert!(fam.contracts.is_empty() && fam.affiliates.is_empty() && fam.ps_txs.is_empty());
        assert_eq!(fam.name, ghost.prefix6());
        assert_ne!(clustering.family_of(op_a), clustering.family_of(ghost));
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
