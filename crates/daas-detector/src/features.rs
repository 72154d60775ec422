//! Per-account feature extraction shared by family forensics and the
//! measurement analytics.
//!
//! The Table 3 contract profiles, the §7.2 lifecycle analysis, the §6.2
//! operator lifecycles, and the §6.1 repeat-victim study all re-derive
//! the same per-account facts — first/last activity, observation spans,
//! live approvals — each with its own `O(observations)` or
//! `O(history)` scan. [`FeatureCache`] extracts them once: observation
//! lookups are indexed eagerly at construction (one pass over the
//! dataset), and per-account [`AccountFeatures`] are memoised on the
//! same [`ShardedMemo`] the classification cache uses, so the §6
//! report workers share results without contending.
//!
//! Everything here is a pure function of one `(chain, dataset)` pair —
//! the cache borrows both, so it cannot outlive or be reused across
//! them.

use std::collections::HashMap;

use daas_chain::{Chain, MemoStats, ShardedMemo, Timestamp, TxId};
use eth_types::{AddrId, Address};

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

/// A memoised per-account feature extractor over one `(chain, dataset)`
/// pair. `Sync` — hand `&FeatureCache` to the §6 report workers.
pub struct FeatureCache<'a> {
    chain: &'a Chain,
    dataset: &'a Dataset,
    /// `tx id → index into dataset.observations`, replacing the
    /// `O(observations)` linear probe per transaction.
    obs_by_tx: HashMap<TxId, usize>,
    /// Per-contract observation aggregates, replacing the
    /// `O(observations)` filter per contract.
    obs_stats: HashMap<Address, ObsStats>,
    /// Keyed by interned id: probes hash 4 bytes and lock placement is
    /// the id's low bits. Accounts the chain has never seen have no id —
    /// their features are the default and are not memoised.
    memo: ShardedMemo<AddrId, AccountFeatures>,
}

impl<'a> FeatureCache<'a> {
    /// Builds the cache (indexes the dataset's observations; one pass).
    pub fn new(chain: &'a Chain, dataset: &'a Dataset) -> Self {
        let mut obs_by_tx = HashMap::with_capacity(dataset.observations.len());
        let mut obs_stats: HashMap<Address, ObsStats> = HashMap::new();
        for (i, obs) in dataset.observations.iter().enumerate() {
            obs_by_tx.insert(obs.tx, i);
            obs_stats
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
        FeatureCache {
            chain,
            dataset,
            obs_by_tx,
            obs_stats,
            memo: ShardedMemo::new(),
        }
    }

    /// The observation classified from `txid`, if the dataset holds one.
    /// `O(1)` via the eager index.
    pub fn observation(&self, txid: TxId) -> Option<&'a PsObservation> {
        self.obs_by_tx.get(&txid).map(|&i| &self.dataset.observations[i])
    }

    /// The memoised features of `account`, computing them on first use.
    /// An account the chain has never interned has no history, no
    /// approvals, and no observations — the default features, returned
    /// without touching the memo.
    pub fn features(&self, account: Address) -> AccountFeatures {
        match self.chain.addr_id(account) {
            Some(id) => self.memo.get_or_compute(id, || self.compute(account)),
            None => AccountFeatures::default(),
        }
    }

    /// `(observation count, first ts, last ts)` of `contract` across the
    /// dataset — `O(1)` from the eager per-contract aggregate, no memo
    /// fill or history walk.
    pub fn contract_observation_span(
        &self,
        contract: Address,
    ) -> Option<(usize, Timestamp, Timestamp)> {
        self.obs_stats.get(&contract).map(|s| (s.count, s.first_ts, s.last_ts))
    }

    /// Number of accounts with memoised features.
    pub fn len(&self) -> usize {
        self.memo.len()
    }

    /// Whether no account has been extracted yet.
    pub fn is_empty(&self) -> bool {
        self.memo.is_empty()
    }

    /// Hit/miss counters and the entry count of the feature memo.
    /// The observability layer exports them as `cache.features.hit` /
    /// `cache.features.miss`.
    pub fn stats(&self) -> MemoStats {
        self.memo.stats()
    }

    /// The pure extraction: one history walk plus O(1) index lookups.
    fn compute(&self, account: Address) -> AccountFeatures {
        let chain = self.chain;
        let history = chain.txs_of(account);
        let first_tx_ts = history.first().map(|&id| chain.tx(id).timestamp());
        let last_tx_ts = history.last().map(|&id| chain.tx(id).timestamp());

        let mut live: Vec<Address> = Vec::new();
        for &txid in history {
            for appr in chain.tx(txid).approvals() {
                if appr.owner != account || !self.dataset.contracts.contains(&appr.spender) {
                    continue;
                }
                let erc20_live =
                    !chain.erc20_allowance(appr.token, account, appr.spender).is_zero();
                let nft_live = chain.nft_approved_for_all(appr.token, account, appr.spender);
                if erc20_live || nft_live {
                    live.push(appr.spender);
                }
            }
        }
        live.sort_unstable();
        live.dedup();

        let obs = self.obs_stats.get(&account);
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
            .field("observations", &self.obs_by_tx.len())
            .field("accounts", &self.len())
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
        assert!(cache.is_empty());
        let f = cache.features(Address([1; 20]));
        assert_eq!(f, AccountFeatures::default());
        assert!(cache.is_empty(), "unknown accounts have no id and are not memoised");
        assert!(cache.observation(0).is_none());
    }
}
