//! Snowball-sampling dataset construction (§5.1, steps 1–4).

use std::collections::BTreeSet;

use daas_chain::{Chain, LabelSource, LabelStore, TxId};
use eth_types::{AddrId, Address};
use serde::{Deserialize, Serialize};

use crate::cache::{ClassificationCache, Verdicts};
use crate::classify::{ClassifierConfig, Positive, PsObservation};
use crate::dataset::{Dataset, DatasetCounts};

/// Snowball parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SnowballConfig {
    /// Transaction-level classifier settings.
    pub classifier: ClassifierConfig,
    /// Minimum classified transactions for a contract to qualify as
    /// profit-sharing (the paper requires observed profit-sharing
    /// behaviour; one transaction suffices).
    pub min_ps_txs: usize,
    /// The §5.1 step-4 guard: only admit a new contract if it has
    /// previously interacted with *another* account already in the
    /// dataset. Disabling this is ablation A3.
    pub expansion_guard: bool,
    /// Safety bound on expansion rounds.
    pub max_rounds: usize,
    /// Worker threads for the world build (`0` = all available cores);
    /// callers reuse it for the §6 report bundle. Snowball sampling
    /// itself is sequential and never reads this: the field rides here
    /// because `run_pipeline` and the daemon's `Engine::new` (and its
    /// checkpoint) take it from the snowball settings. Artifacts are
    /// byte-identical at every value.
    pub threads: usize,
}

impl Default for SnowballConfig {
    fn default() -> Self {
        SnowballConfig {
            classifier: ClassifierConfig::default(),
            min_ps_txs: 1,
            expansion_guard: true,
            max_rounds: 64,
            threads: 0,
        }
    }
}

impl SnowballConfig {
    /// Resolves `threads`: `0` means all available cores.
    pub fn effective_threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            n => n,
        }
    }
}

/// Builds the DaaS dataset from public labels and the chain, per §5.1:
///
/// 1. collect phishing *contracts* from the four public label sources;
/// 2. qualify each as profit-sharing by classifying its history;
/// 3. extract operator and affiliate accounts from the classified
///    transactions (seed dataset — counts snapshotted);
/// 4. iteratively scan the accounts' histories for new profit-sharing
///    contracts (guarded), until no new account emerges.
///
/// Expansion runs in rounds: each round drains the frontier and scans
/// it in order. Every verdict comes from a [`ClassificationCache`]
/// filled once, in chain order, before the traversal starts.
pub fn build_dataset(chain: &Chain, labels: &LabelStore, cfg: &SnowballConfig) -> Dataset {
    build_dataset_with_cache(chain, labels, cfg, &ClassificationCache::new())
}

/// [`build_dataset`] over a caller-supplied classification table, so
/// repeated runs (benchmarks, the live pipeline's batch re-verification)
/// skip re-classifying. The table must have been filled — if at all —
/// from the same chain under the same `cfg.classifier`.
pub fn build_dataset_with_cache(
    chain: &Chain,
    labels: &LabelStore,
    cfg: &SnowballConfig,
    cache: &ClassificationCache,
) -> Dataset {
    let _build_span = daas_obs::span!("snowball.build");
    let stats_before = daas_obs::enabled().then(|| cache.stats());
    let total = chain.transactions().len() as TxId;
    {
        let _span = daas_obs::span!(
            "snowball.classify",
            txs = (total as usize).saturating_sub(cache.len())
        );
        cache.fill(chain, &cfg.classifier, total);
    }
    let verdicts = cache.read();
    let mut walk = Walk::new(chain, &verdicts, cfg);

    // ---- Step 1: candidate contracts from public sources. ----
    let mut candidates: Vec<Address> = LabelSource::PUBLIC
        .into_iter()
        .flat_map(|source| labels.phishing_addresses(source))
        .filter(|&address| chain.is_contract(address))
        .collect();
    candidates.sort_unstable();
    candidates.dedup();

    // ---- Steps 2–3: qualify candidates, build the seed dataset. ----
    for contract in candidates {
        // A contract the arena never saw has no history to qualify.
        let Some(id) = chain.addr_id(contract) else { continue };
        for slot in walk.qualify(id) {
            walk.absorb(slot);
        }
    }
    let seed = walk.counts();

    // ---- Step 4: expansion to fixpoint. ----
    // The first frontier is the seed's operators, then its affiliates,
    // each in address order; an account holding both roles is scanned
    // twice.
    let mut queue = walk.in_address_order(|p| p.operator);
    queue.extend(walk.in_address_order(|p| p.affiliate));
    for &account in &queue {
        walk.marks[account.index()] |= PROCESSED;
    }
    let mut rounds = 0;
    while !queue.is_empty() && rounds < cfg.max_rounds {
        rounds += 1;
        let batch = std::mem::take(&mut queue);
        let _round_span = daas_obs::span!("snowball.round", round = rounds, frontier = batch.len());
        for account in batch {
            walk.scan(account, &mut queue);
        }
    }

    let dataset = walk.into_dataset(seed, rounds);
    drop(verdicts);
    if let Some(before) = stats_before {
        // Report the table traffic this build generated (not the table's
        // lifetime totals — a shared table may predate us).
        let stats = cache.stats();
        daas_obs::add("cache.classify.hit", stats.hits.saturating_sub(before.hits));
        daas_obs::add("cache.classify.miss", stats.misses.saturating_sub(before.misses));
        daas_obs::gauge("cache.classify.entries", stats.entries as f64);
        daas_obs::add("snowball.rounds", rounds as u64);
    }
    dataset
}

/// Role and traversal marks, one byte per interned address.
const CONTRACT: u8 = 1;
const OPERATOR: u8 = 2;
const AFFILIATE: u8 = 4;
/// Any dataset role: the step-4 guard's membership test.
const MEMBER: u8 = CONTRACT | OPERATOR | AFFILIATE;
/// Queued for a history scan (or already scanned).
const PROCESSED: u8 = 8;
/// A contract step 2 rejected.
const REJECTED: u8 = 16;

/// The §5.1 traversal's state, keyed by interned id: marks per
/// [`AddrId`], and the profit-sharing transaction set as one flag per
/// positive of the verdict table. The public [`Dataset`] is built from
/// it once, at the end.
struct Walk<'a> {
    chain: &'a Chain,
    verdicts: &'a Verdicts<'a>,
    cfg: &'a SnowballConfig,
    marks: Vec<u8>,
    /// Per positive slot: absorbed into the dataset.
    absorbed: Vec<bool>,
    /// Absorbed slots, in absorb order (the dataset's observation order).
    order: Vec<u32>,
    /// Scratch for touched-id extraction.
    touched: Vec<AddrId>,
}

impl<'a> Walk<'a> {
    fn new(chain: &'a Chain, verdicts: &'a Verdicts<'a>, cfg: &'a SnowballConfig) -> Self {
        let store = chain.transactions();
        Walk {
            chain,
            verdicts,
            cfg,
            marks: vec![0; store.interner().len()],
            absorbed: vec![false; verdicts.positives()],
            order: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// Absorbs a positive (contract, roles, transaction). Returns `true`
    /// if the transaction was new.
    fn absorb(&mut self, slot: u32) -> bool {
        if std::mem::replace(&mut self.absorbed[slot as usize], true) {
            return false;
        }
        self.order.push(slot);
        let p = self.verdicts.positive(slot);
        self.marks[p.contract.index()] |= CONTRACT;
        self.marks[p.operator.index()] |= OPERATOR;
        self.marks[p.affiliate.index()] |= AFFILIATE;
        true
    }

    /// The dataset's current counts.
    fn counts(&self) -> DatasetCounts {
        let holding = |role: u8| self.marks.iter().filter(|&&mark| mark & role != 0).count();
        DatasetCounts {
            contracts: holding(CONTRACT),
            operators: holding(OPERATOR),
            affiliates: holding(AFFILIATE),
            ps_txs: self.order.len(),
        }
    }

    /// [`Self::absorb`], queueing the positive's operator and affiliate
    /// for a scan if the transaction was new and they were not queued
    /// before.
    fn absorb_and_enqueue(&mut self, slot: u32, queue: &mut Vec<AddrId>) {
        if self.absorb(slot) {
            let p = self.verdicts.positive(slot);
            for account in [p.operator, p.affiliate] {
                let mark = &mut self.marks[account.index()];
                if *mark & PROCESSED == 0 {
                    *mark |= PROCESSED;
                    queue.push(account);
                }
            }
        }
    }

    /// Step 4 for one frontier account: every profit-sharing transaction
    /// in its history either extends a known contract or surfaces a
    /// candidate, which the guard and step 2 decide.
    fn scan(&mut self, account: AddrId, queue: &mut Vec<AddrId>) {
        let verdicts = self.verdicts;
        for &txid in self.chain.txs_of_id(account) {
            let Some(slot) = verdicts.slot(txid) else { continue };
            let contract = verdicts.positive(slot).contract;
            let mark = self.marks[contract.index()];
            if mark & CONTRACT != 0 {
                // Known contract: absorb the transaction anyway so the
                // dataset's transaction set converges.
                self.absorb_and_enqueue(slot, queue);
                continue;
            }
            if mark & REJECTED != 0 {
                continue;
            }
            if self.cfg.expansion_guard && !self.previously_interacted(contract, txid) {
                continue;
            }
            // Re-apply step 2 on the new contract.
            let slots = self.qualify(contract);
            if slots.is_empty() {
                self.marks[contract.index()] |= REJECTED;
                continue;
            }
            for s in slots {
                self.absorb_and_enqueue(s, queue);
            }
        }
    }

    /// Step 2: a contract qualifies as profit-sharing if at least
    /// `min_ps_txs` of its historical transactions classify with the
    /// contract as the invoked target (a positive's contract is always
    /// its transaction's `to`). Returns the qualifying positives' slots
    /// (empty if it does not qualify).
    fn qualify(&self, contract: AddrId) -> Vec<u32> {
        let verdicts = self.verdicts;
        let slots: Vec<u32> = self
            .chain
            .txs_of_id(contract)
            .iter()
            .filter_map(|&txid| verdicts.slot(txid))
            .filter(|&slot| verdicts.positive(slot).contract == contract)
            .collect();
        if slots.len() >= self.cfg.min_ps_txs.max(1) {
            slots
        } else {
            Vec::new()
        }
    }

    /// The step-4 guard: has `contract` *previously* — in a transaction
    /// strictly before the one that surfaced it — interacted with a
    /// phishing account already in the dataset? Transaction ids are
    /// chronological, so "previously" is an id comparison. A contract
    /// deployment by a dataset operator counts (that is exactly how
    /// rotated drainer contracts are linked); a one-off ratio-shaped
    /// payment through a benign contract does not.
    fn previously_interacted(&mut self, contract: AddrId, surfacing_tx: TxId) -> bool {
        let store = self.chain.transactions();
        for &txid in self.chain.txs_of_id(contract) {
            if txid >= surfacing_tx {
                break; // histories are in chain order
            }
            store.touched_ids_into(txid, &mut self.touched);
            if self.touched.iter().any(|&id| id != contract && self.marks[id.index()] & MEMBER != 0)
            {
                return true;
            }
        }
        false
    }

    /// One role's accounts across the absorbed positives, as distinct
    /// ids in address order.
    fn in_address_order(&self, role: impl Fn(&Positive) -> AddrId) -> Vec<AddrId> {
        let store = self.chain.transactions();
        let mut ids: Vec<AddrId> =
            self.order.iter().map(|&slot| role(self.verdicts.positive(slot))).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.sort_by_cached_key(|&id| store.resolve(id));
        ids
    }

    /// The public dataset: role sets in address order, observations in
    /// absorb order.
    fn into_dataset(self, seed: DatasetCounts, rounds: usize) -> Dataset {
        let addresses = self.chain.transactions().interner().addresses();
        let role_set = |role: u8| -> BTreeSet<Address> {
            self.marks
                .iter()
                .zip(addresses)
                .filter(|(&mark, _)| mark & role != 0)
                .map(|(_, &address)| address)
                .collect()
        };
        let store = self.chain.transactions();
        let positive = |slot: usize| self.verdicts.positive(slot as u32);
        // Materialize the observations in chain order, where the arena
        // reads are sequential, straight into their absorb positions.
        let mut rank = vec![0u32; self.absorbed.len()];
        for (i, &slot) in self.order.iter().enumerate() {
            rank[slot as usize] = i as u32;
        }
        let mut observations: Vec<Option<PsObservation>> = vec![None; self.order.len()];
        for slot in (0..self.absorbed.len()).filter(|&slot| self.absorbed[slot]) {
            observations[rank[slot] as usize] = Some(positive(slot).observation(store));
        }
        Dataset {
            contracts: role_set(CONTRACT),
            operators: role_set(OPERATOR),
            affiliates: role_set(AFFILIATE),
            // Slots run in chain order, so this collects already sorted.
            ps_txs: (0..self.absorbed.len())
                .filter(|&slot| self.absorbed[slot])
                .map(|slot| positive(slot).tx)
                .collect(),
            observations: observations
                .into_iter()
                .map(|obs| obs.expect("every absorbed slot has a rank"))
                .collect(),
            seed,
            rounds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daas_chain::{ContractKind, EntryStyle, ProfitSharingSpec};
    use eth_types::units::ether;
    use eth_types::U256;

    /// A hand-built two-family micro-world exercising seed + expansion.
    struct Micro {
        chain: Chain,
        labels: LabelStore,
        labeled_contract: Address,
        hidden_contract: Address,
        operator: Address,
        affiliates: [Address; 2],
    }

    fn micro() -> Micro {
        let mut chain = Chain::new();
        let mut labels = LabelStore::new();
        let operator = chain.create_eoa_funded(b"op", ether(10)).unwrap();
        let aff1 = chain.create_eoa(b"aff1").unwrap();
        let aff2 = chain.create_eoa(b"aff2").unwrap();
        let spec = |op| ProfitSharingSpec {
            operator: op,
            operator_bps: 2000,
            entry: EntryStyle::PayableFallback,
        };
        let labeled_contract =
            chain.deploy_contract(operator, ContractKind::ProfitSharing(spec(operator))).unwrap();
        let hidden_contract =
            chain.deploy_contract(operator, ContractKind::ProfitSharing(spec(operator))).unwrap();

        // Victims hit both contracts; the same operator links them.
        for (i, (contract, aff)) in
            [(labeled_contract, aff1), (hidden_contract, aff2)].iter().enumerate()
        {
            let victim = chain
                .create_eoa_funded(format!("victim{i}").as_bytes(), ether(100))
                .unwrap();
            chain.advance(12);
            chain.claim_eth(victim, *contract, ether(10), *aff).unwrap();
        }

        labels.add_phishing(labeled_contract, LabelSource::Chainabuse, "reported");
        Micro { chain, labels, labeled_contract, hidden_contract, operator, affiliates: [aff1, aff2] }
    }

    #[test]
    fn seed_contains_only_labeled_contract() {
        let m = micro();
        let ds = build_dataset(&m.chain, &m.labels, &SnowballConfig::default());
        assert_eq!(ds.seed.contracts, 1);
        assert!(ds.contracts.contains(&m.labeled_contract));
    }

    #[test]
    fn expansion_discovers_hidden_contract_via_operator() {
        let m = micro();
        let ds = build_dataset(&m.chain, &m.labels, &SnowballConfig::default());
        assert!(ds.contracts.contains(&m.hidden_contract), "expansion missed hidden contract");
        assert_eq!(ds.counts().contracts, 2);
        assert!(ds.operators.contains(&m.operator));
        for aff in m.affiliates {
            assert!(ds.affiliates.contains(&aff));
        }
        assert_eq!(ds.counts().ps_txs, 2);
        assert!(ds.rounds >= 1);
    }

    #[test]
    fn no_labels_no_dataset() {
        let m = micro();
        let empty = LabelStore::new();
        let ds = build_dataset(&m.chain, &empty, &SnowballConfig::default());
        assert_eq!(ds.counts().daas_accounts(), 0);
        assert_eq!(ds.seed.ps_txs, 0);
    }

    #[test]
    fn labeled_eoa_is_not_a_seed_contract() {
        // Step 1 collects phishing *contracts*; a labeled EOA seeds
        // nothing by itself.
        let m = micro();
        let mut labels = LabelStore::new();
        labels.add_phishing(m.operator, LabelSource::Etherscan, "Fake_Phishing1");
        let ds = build_dataset(&m.chain, &labels, &SnowballConfig::default());
        assert_eq!(ds.counts().daas_accounts(), 0);
    }

    #[test]
    fn benign_contract_with_label_does_not_qualify() {
        // A mislabeled benign splitter with a non-table ratio never
        // produces observations, so step 2 rejects it.
        let mut chain = Chain::new();
        let owner = chain.create_eoa_funded(b"owner", ether(10)).unwrap();
        let a = chain.create_eoa(b"a").unwrap();
        let b = chain.create_eoa(b"b").unwrap();
        let splitter = chain.deploy_contract(owner, ContractKind::Benign).unwrap();
        let payer = chain.create_eoa_funded(b"payer", ether(50)).unwrap();
        chain.split_payment(payer, splitter, ether(10), &[(a, 5_000), (b, 5_000)]).unwrap();
        let mut labels = LabelStore::new();
        labels.add_phishing(splitter, LabelSource::Chainabuse, "false report");
        let ds = build_dataset(&chain, &labels, &SnowballConfig::default());
        assert_eq!(ds.counts().contracts, 0, "false report must not qualify");
    }

    #[test]
    fn guard_blocks_unconnected_ratio_contract() {
        // A 70/30 benign splitter used once by the operator: ratio
        // matches, but with the guard on it has no *other* dataset
        // contact, so it is rejected; with the guard off it leaks in.
        let mut m = micro();
        let sink1 = m.chain.create_eoa(b"sink1").unwrap();
        let sink2 = m.chain.create_eoa(b"sink2").unwrap();
        let owner = m.chain.create_eoa_funded(b"sowner", ether(1)).unwrap();
        let splitter = m.chain.deploy_contract(owner, ContractKind::Benign).unwrap();
        m.chain.advance(12);
        m.chain
            .split_payment(m.operator, splitter, ether(5), &[(sink1, 3_000), (sink2, 7_000)])
            .unwrap();

        let guarded = build_dataset(&m.chain, &m.labels, &SnowballConfig::default());
        assert!(!guarded.contracts.contains(&splitter), "guard failed");

        let unguarded = build_dataset(
            &m.chain,
            &m.labels,
            &SnowballConfig { expansion_guard: false, ..Default::default() },
        );
        assert!(
            unguarded.contracts.contains(&splitter),
            "without the guard the ratio-shaped benign contract is a false positive"
        );
    }

    #[test]
    fn guard_admits_contract_with_second_dataset_contact() {
        // Two dataset accounts touching the same new contract satisfies
        // the "previously interacted with another phishing account" rule.
        let mut m = micro();
        let sink1 = m.chain.create_eoa(b"sink1").unwrap();
        let sink2 = m.chain.create_eoa(b"sink2").unwrap();
        let owner = m.chain.create_eoa_funded(b"sowner", ether(1)).unwrap();
        let splitter = m.chain.deploy_contract(owner, ContractKind::Benign).unwrap();
        // Both the operator and an affiliate (fund it first) use it.
        m.chain.advance(12);
        m.chain
            .split_payment(m.operator, splitter, ether(2), &[(sink1, 3_000), (sink2, 7_000)])
            .unwrap();
        m.chain.advance(12);
        m.chain
            .split_payment(m.affiliates[0], splitter, ether(2), &[(sink1, 3_000), (sink2, 7_000)])
            .unwrap();
        let ds = build_dataset(&m.chain, &m.labels, &SnowballConfig::default());
        assert!(
            ds.contracts.contains(&splitter),
            "the guard admits doubly-connected contracts (the paper's FP exposure)"
        );
    }

    #[test]
    fn min_ps_txs_threshold() {
        let m = micro();
        // Each contract has exactly one PS tx; requiring two rejects all.
        let strict = SnowballConfig { min_ps_txs: 2, ..Default::default() };
        let ds = build_dataset(&m.chain, &m.labels, &strict);
        assert_eq!(ds.counts().contracts, 0);
    }

    #[test]
    fn dataset_absorbs_known_contract_txs_found_late() {
        // A second tx on the labeled contract arriving via expansion is
        // still absorbed exactly once.
        let mut m = micro();
        let victim = m.chain.create_eoa_funded(b"victim-extra", ether(20)).unwrap();
        m.chain.advance(12);
        m.chain.claim_eth(victim, m.labeled_contract, ether(5), m.affiliates[0]).unwrap();
        let ds = build_dataset(&m.chain, &m.labels, &SnowballConfig::default());
        assert_eq!(ds.counts().ps_txs, 3);
        let distinct: std::collections::HashSet<_> =
            ds.observations.iter().map(|o| o.tx).collect();
        assert_eq!(distinct.len(), ds.observations.len());
        let _ = U256::ZERO;
    }
}
