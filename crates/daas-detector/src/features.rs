//! Per-account feature extraction shared by family forensics and the
//! measurement analytics.
//!
//! The Table 3 contract profiles, the §7.2 lifecycle analysis and the
//! §6.2 operator lifecycles read the same per-account facts —
//! first/last activity, observation spans, live approvals. (The §6.1
//! repeat-victim study reads the live approvals off the chain in one
//! pass, `Chain::live_approvals`; its test checks that count against
//! these walks.) [`FeatureCache`] derives them from one
//! `(chain, dataset)` pair. An account's [`AccountFeatures`] are one
//! walk of its history over the approval columns
//! ([`daas_chain::TxView::approval_columns`]), computed on each call
//! and not stored: every consumer asks for an account once per context,
//! so a memo would only have added a lock and a copy per call. The two
//! observation indices (by transaction, and per contract) are built on
//! first use, on Fx-hashed maps.
//!
//! Everything here is a pure function of one `(chain, dataset)` pair —
//! the cache borrows both, so it cannot outlive or be reused across
//! them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use daas_chain::{Chain, Timestamp, TxId};
use eth_types::{AddrId, Address, FxHashMap};

use crate::cache::MemoStats;
use crate::classify::PsObservation;
use crate::dataset::Dataset;

/// Facts about one account, derived from its chain history and the
/// discovered dataset.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AccountFeatures {
    /// Timestamp of the account's first transaction, if any.
    pub first_tx_ts: Option<Timestamp>,
    /// Timestamp of the account's last transaction, if any.
    pub last_tx_ts: Option<Timestamp>,
    /// Number of transactions touching the account.
    pub tx_count: usize,
    /// Number of profit-sharing observations naming the account as the
    /// contract.
    pub obs_count: usize,
    /// Earliest observation timestamp (as contract), if any.
    pub obs_first_ts: Option<Timestamp>,
    /// Latest observation timestamp (as contract), if any.
    pub obs_last_ts: Option<Timestamp>,
    /// Dataset contracts the account still holds a live approval toward
    /// (ERC-20 allowance or NFT operator approval), sorted.
    pub live_approval_spenders: Vec<Address>,
}

/// Per-contract observation aggregate, built in one dataset pass.
#[derive(Debug, Clone, Copy)]
struct ObsStats {
    count: usize,
    first_ts: Timestamp,
    last_ts: Timestamp,
}

/// A per-account feature extractor over one `(chain, dataset)` pair.
/// `Sync` — hand `&FeatureCache` to the §6 report workers.
pub struct FeatureCache<'a> {
    chain: &'a Chain,
    dataset: &'a Dataset,
    /// `tx id → index into dataset.observations`, built on first use.
    obs_by_tx: OnceLock<FxHashMap<TxId, u32>>,
    /// Per-contract observation aggregates, built on first use.
    obs_stats: OnceLock<FxHashMap<Address, ObsStats>>,
    /// Feature sets extracted so far (accounts the chain has interned).
    extracted: AtomicU64,
}

impl<'a> FeatureCache<'a> {
    /// A cache over `chain` and `dataset`; nothing is indexed until a
    /// lookup needs it.
    pub fn new(chain: &'a Chain, dataset: &'a Dataset) -> Self {
        FeatureCache {
            chain,
            dataset,
            obs_by_tx: OnceLock::new(),
            obs_stats: OnceLock::new(),
            extracted: AtomicU64::new(0),
        }
    }

    /// The observation classified from `txid`, if the dataset holds one.
    pub fn observation(&self, txid: TxId) -> Option<&'a PsObservation> {
        let dataset = self.dataset;
        let index = self.obs_by_tx.get_or_init(|| {
            dataset.observations.iter().enumerate().map(|(i, obs)| (obs.tx, i as u32)).collect()
        });
        index.get(&txid).map(|&i| &dataset.observations[i as usize])
    }

    /// The features of `account`: one walk of its history. An account
    /// the chain has never interned has no history, no approvals, and no
    /// observations — the default features, returned without a walk.
    pub fn features(&self, account: Address) -> AccountFeatures {
        match self.chain.addr_id(account) {
            Some(id) => {
                self.extracted.fetch_add(1, Ordering::Relaxed);
                self.compute(id, account)
            }
            None => AccountFeatures::default(),
        }
    }

    /// `(observation count, first ts, last ts)` of `contract` across the
    /// dataset — one lookup in the per-contract aggregate, no history
    /// walk.
    pub fn contract_observation_span(
        &self,
        contract: Address,
    ) -> Option<(usize, Timestamp, Timestamp)> {
        self.obs_stats().get(&contract).map(|s| (s.count, s.first_ts, s.last_ts))
    }

    /// The cache's counters: `misses` is the number of feature sets
    /// extracted (calls for accounts the chain has interned); nothing is
    /// stored, so `hits` and `entries` stay 0. The observability layer
    /// exports per-bundle deltas as `cache.features.hit` /
    /// `cache.features.miss`.
    pub fn stats(&self) -> MemoStats {
        MemoStats { hits: 0, misses: self.extracted.load(Ordering::Relaxed), entries: 0 }
    }

    fn obs_stats(&self) -> &FxHashMap<Address, ObsStats> {
        self.obs_stats.get_or_init(|| {
            let mut stats: FxHashMap<Address, ObsStats> = FxHashMap::default();
            for obs in &self.dataset.observations {
                stats
                    .entry(obs.contract)
                    .and_modify(|s| {
                        s.count += 1;
                        s.first_ts = s.first_ts.min(obs.timestamp);
                        s.last_ts = s.last_ts.max(obs.timestamp);
                    })
                    .or_insert(ObsStats {
                        count: 1,
                        first_ts: obs.timestamp,
                        last_ts: obs.timestamp,
                    });
            }
            stats
        })
    }

    /// The pure extraction: one history walk over the approval columns,
    /// resolving only the spenders of approvals `account` owns.
    fn compute(&self, id: AddrId, account: Address) -> AccountFeatures {
        let chain = self.chain;
        let store = chain.transactions();
        let history = chain.txs_of_id(id);
        let first_tx_ts = history.first().map(|&t| store.view(t).timestamp());
        let last_tx_ts = history.last().map(|&t| store.view(t).timestamp());

        let mut live: Vec<Address> = Vec::new();
        for &txid in history {
            let cols = store.view(txid).approval_columns();
            for i in 0..cols.owner.len() {
                if cols.owner[i] != id {
                    continue;
                }
                let (token, spender_id) = (cols.token[i], cols.spender[i]);
                let spender = store.resolve(spender_id);
                if !self.dataset.contracts.contains(&spender) {
                    continue;
                }
                let erc20_live = !chain.erc20_allowance_id(token, id, spender_id).is_zero();
                if erc20_live || chain.nft_approved_for_all_id(token, id, spender_id) {
                    live.push(spender);
                }
            }
        }
        live.sort_unstable();
        live.dedup();

        let obs = self.obs_stats().get(&account);
        AccountFeatures {
            first_tx_ts,
            last_tx_ts,
            tx_count: history.len(),
            obs_count: obs.map_or(0, |s| s.count),
            obs_first_ts: obs.map(|s| s.first_ts),
            obs_last_ts: obs.map(|s| s.last_ts),
            live_approval_spenders: live,
        }
    }
}

impl std::fmt::Debug for FeatureCache<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FeatureCache")
            .field("observations", &self.dataset.observations.len())
            .field("extracted", &self.extracted.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_world_yields_default_features() {
        let chain = Chain::new();
        let dataset = Dataset::default();
        let cache = FeatureCache::new(&chain, &dataset);
        let f = cache.features(Address([1; 20]));
        assert_eq!(f, AccountFeatures::default());
        assert_eq!(cache.stats(), MemoStats::default(), "unknown accounts are not extracted");
        assert!(cache.observation(0).is_none());
    }
}
