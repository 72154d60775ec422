//! Snowball-sampling dataset construction (§5.1, steps 1–4).

use std::collections::{HashSet, VecDeque};

use daas_chain::{Chain, LabelSource, LabelStore};
use eth_types::Address;
use serde::{Deserialize, Serialize};

use crate::cache::ClassificationCache;
use crate::classify::{ClassifierConfig, PsObservation};
use crate::dataset::Dataset;

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
/// it in order, classifying lazily through a [`ClassificationCache`],
/// so only transactions the scan reaches are ever classified.
pub fn build_dataset(chain: &Chain, labels: &LabelStore, cfg: &SnowballConfig) -> Dataset {
    build_dataset_with_cache(chain, labels, cfg, &ClassificationCache::new())
}

/// [`build_dataset`] over a caller-supplied classification cache, so
/// repeated runs (benchmarks, the online detector hand-off) skip
/// re-classifying known transactions. The cache must have been warmed —
/// if at all — under the same `cfg.classifier`.
pub fn build_dataset_with_cache(
    chain: &Chain,
    labels: &LabelStore,
    cfg: &SnowballConfig,
    cache: &ClassificationCache,
) -> Dataset {
    let _build_span = daas_obs::span!("snowball.build");
    let stats_before = daas_obs::enabled().then(|| cache.stats());
    let mut dataset = Dataset::default();
    let mut rejected: HashSet<Address> = HashSet::new();

    // ---- Step 1: candidate contracts from public sources. ----
    let mut candidates: Vec<Address> = Vec::new();
    let mut seen = HashSet::new();
    for source in LabelSource::PUBLIC {
        for address in labels.phishing_addresses(source) {
            if chain.is_contract(address) && seen.insert(address) {
                candidates.push(address);
            }
        }
    }
    candidates.sort_unstable();

    // ---- Steps 2–3: qualify candidates, build the seed dataset. ----
    for contract in candidates {
        let observations = qualify_contract(chain, contract, cfg, cache);
        for obs in observations {
            dataset.absorb_ref(&obs);
        }
    }
    dataset.seed = dataset.counts();

    // ---- Step 4: expansion to fixpoint. ----
    let mut queue: VecDeque<Address> = dataset
        .operators
        .iter()
        .chain(dataset.affiliates.iter())
        .copied()
        .collect();
    let mut processed: HashSet<Address> = queue.iter().copied().collect();
    let mut rounds = 0;

    while !queue.is_empty() && rounds < cfg.max_rounds {
        rounds += 1;
        let batch: Vec<Address> = queue.drain(..).collect();
        let _round_span = daas_obs::span!("snowball.round", round = rounds, frontier = batch.len());
        for account in batch {
            for &txid in chain.txs_of(account) {
                let Some(obs) = cache.classify(chain, txid, &cfg.classifier) else { continue };
                let contract = obs.contract;
                if dataset.contracts.contains(&contract) {
                    // Known contract: absorb the transaction anyway so
                    // the dataset's transaction set converges.
                    absorb_and_enqueue(&mut dataset, &obs, &mut queue, &mut processed);
                    continue;
                }
                if rejected.contains(&contract) {
                    continue;
                }
                if cfg.expansion_guard && !previously_interacted(chain, &dataset, contract, txid) {
                    continue;
                }
                // Re-apply step 2 on the new contract.
                let observations = qualify_contract(chain, contract, cfg, cache);
                if observations.is_empty() {
                    rejected.insert(contract);
                    continue;
                }
                for o in observations {
                    absorb_and_enqueue(&mut dataset, &o, &mut queue, &mut processed);
                }
            }
        }
    }

    dataset.rounds = rounds;
    if let Some(before) = stats_before {
        // Report the cache traffic this build generated (not the
        // cache's lifetime totals — a shared cache may predate us).
        let stats = cache.stats();
        daas_obs::add("cache.classify.hit", stats.hits.saturating_sub(before.hits));
        daas_obs::add("cache.classify.miss", stats.misses.saturating_sub(before.misses));
        daas_obs::gauge("cache.classify.entries", stats.entries as f64);
        daas_obs::add("snowball.rounds", rounds as u64);
    }
    dataset
}

fn absorb_and_enqueue(
    dataset: &mut Dataset,
    obs: &PsObservation,
    queue: &mut VecDeque<Address>,
    processed: &mut HashSet<Address>,
) {
    let (op, aff) = (obs.operator, obs.affiliate);
    if dataset.absorb_ref(obs) {
        for account in [op, aff] {
            if processed.insert(account) {
                queue.push_back(account);
            }
        }
    }
}

/// Step 2: a contract qualifies as profit-sharing if at least
/// `min_ps_txs` of its historical transactions classify, with the
/// contract as the invoked target. Returns the qualifying observations
/// (empty if it does not qualify).
fn qualify_contract(
    chain: &Chain,
    contract: Address,
    cfg: &SnowballConfig,
    cache: &ClassificationCache,
) -> Vec<std::sync::Arc<PsObservation>> {
    let mut observations = Vec::new();
    // The contract appears in its own history, so it is interned; the
    // invoked-target filter compares interned ids without resolving.
    let contract_id = chain.addr_id(contract);
    for &txid in chain.txs_of(contract) {
        if chain.tx(txid).to_id().get() != contract_id {
            continue;
        }
        if let Some(obs) = cache.classify(chain, txid, &cfg.classifier) {
            observations.push(obs);
        }
    }
    if observations.len() >= cfg.min_ps_txs.max(1) {
        observations
    } else {
        Vec::new()
    }
}

/// The step-4 guard: has `contract` *previously* — in a transaction
/// strictly before the one that surfaced it — interacted with a phishing
/// account already in the dataset? Transaction ids are chronological, so
/// "previously" is an id comparison. A contract deployment by a dataset
/// operator counts (that is exactly how rotated drainer contracts are
/// linked); a one-off ratio-shaped payment through a benign contract
/// does not.
fn previously_interacted(
    chain: &Chain,
    dataset: &Dataset,
    contract: Address,
    surfacing_tx: daas_chain::TxId,
) -> bool {
    let store = chain.transactions();
    let contract_id = chain.addr_id(contract);
    let mut touched: Vec<eth_types::AddrId> = Vec::new();
    for &txid in chain.txs_of(contract) {
        if txid >= surfacing_tx {
            break; // histories are in chain order
        }
        store.touched_ids_into(txid, &mut touched);
        for &id in &touched {
            if Some(id) != contract_id && dataset.contains(store.resolve(id)) {
                return true;
            }
        }
    }
    false
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
