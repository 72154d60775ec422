//! Affiliate-management observables (§7.2): leveling-system tiers and
//! on-chain reward payments.

use daas_chain::AssetRef;
use eth_types::{AddrId, Address, U256};
use serde::{Deserialize, Serialize};

use crate::incidents::MeasureCtx;

/// Tier census for one family's affiliates under its leveling
/// thresholds (level 0 = below the first threshold).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TierCensus {
    /// Affiliates per level `[0, 1, 2, 3]`.
    pub levels: [usize; 4],
}

impl TierCensus {
    /// Total affiliates counted.
    pub fn total(&self) -> usize {
        self.levels.iter().sum()
    }
}

/// Observed operator→affiliate reward payments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RewardReport {
    /// Direct (non-profit-sharing) ETH transfers from operators to
    /// affiliates.
    pub transfers: usize,
    /// Total rewarded, wei.
    pub total_wei: U256,
    /// Distinct affiliates rewarded.
    pub affiliates_rewarded: usize,
}

impl<'a> MeasureCtx<'a> {
    /// Buckets `affiliates` into leveling tiers by their measured USD
    /// profits against the given thresholds (§7.2: Angel uses
    /// $100k/$1M/$5M, Inferno $10k/$100k/$1M).
    pub fn affiliate_tiers(&self, affiliates: &[Address], thresholds_usd: [f64; 3]) -> TierCensus {
        let t = self.tables();
        let mut levels = [0usize; 4];
        for aff in affiliates {
            let usd = t.affiliates.binary_search(aff).map_or(0.0, |r| t.profit_per_affiliate[r]);
            let level = thresholds_usd.iter().take_while(|&&t| usd >= t).count();
            levels[level] += 1;
        }
        TierCensus { levels }
    }

    /// Finds direct operator→affiliate ETH transfers that are not part
    /// of profit-sharing transactions — the on-chain footprint of the
    /// §7.2 reward mechanisms. Restricted to `operators`/`affiliates`
    /// (e.g. one clustered family's members). The scan compares
    /// interned ids; accounts the chain never interned take no part.
    pub fn reward_transfers(&self, operators: &[Address], affiliates: &[Address]) -> RewardReport {
        let chain = self.chain;
        let store = chain.transactions();
        let ids = |accounts: &[Address]| {
            let mut ids: Vec<AddrId> = accounts.iter().filter_map(|&a| chain.addr_id(a)).collect();
            ids.sort_unstable();
            ids.dedup();
            ids
        };
        let (ops, affs) = (ids(operators), ids(affiliates));
        let mut ps = vec![0u64; store.len().div_ceil(64)];
        for &tx in &self.dataset.ps_txs {
            if let Some(word) = ps.get_mut(tx as usize / 64) {
                *word |= 1 << (tx % 64);
            }
        }
        let mut transfers = 0usize;
        let mut total = U256::ZERO;
        let mut rewarded = Vec::new();
        let mut entries = 0u64;
        for &op in &ops {
            let history = chain.txs_of_id(op);
            entries += history.len() as u64;
            for &txid in history {
                if ps[txid as usize / 64] & 1 << (txid % 64) != 0 {
                    continue;
                }
                let cols = store.view(txid).transfer_columns();
                for i in 0..cols.to.len() {
                    let to = cols.to[i];
                    if cols.asset[i] == AssetRef::Eth
                        && cols.from[i] == op
                        && affs.binary_search(&to).is_ok()
                    {
                        transfers += 1;
                        total = total.saturating_add(cols.amount[i]);
                        rewarded.push(to);
                    }
                }
            }
        }
        daas_obs::add_l("measure.history_entries", "report", "associations", entries);
        rewarded.sort_unstable();
        rewarded.dedup();
        RewardReport { transfers, total_wei: total, affiliates_rewarded: rewarded.len() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daas_chain::{Chain, ContractKind, EntryStyle, ProfitSharingSpec};
    use daas_detector::{classify_tx, Dataset};
    use daas_pricing::Oracle;
    use eth_types::units::ether;

    fn setup() -> (Chain, Dataset, Address, Address, Address) {
        let mut chain = Chain::new();
        let op = chain.create_eoa_funded(b"m/op", ether(100)).unwrap();
        let aff1 = chain.create_eoa(b"m/aff1").unwrap();
        let aff2 = chain.create_eoa(b"m/aff2").unwrap();
        let victim = chain.create_eoa_funded(b"m/v", ether(1_000)).unwrap();
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
        let mut ds = Dataset::default();
        chain.advance(12);
        // aff1 earns a lot (500 ETH), aff2 a little (1 ETH).
        let tx = chain.claim_eth(victim, contract, ether(625), aff1).unwrap();
        ds.absorb(classify_tx(chain.tx(tx), &Default::default()).unwrap());
        chain.advance(12);
        let tx = chain.claim_eth(victim, contract, ether(1), aff2).unwrap();
        ds.absorb(classify_tx(chain.tx(tx), &Default::default()).unwrap());
        (chain, ds, op, aff1, aff2)
    }

    #[test]
    fn tiers_bucket_by_thresholds() {
        let (chain, ds, _op, aff1, aff2) = setup();
        let oracle = Oracle::new();
        let ctx = MeasureCtx::new(&chain, &ds, &oracle);
        // aff1 earned 500 ETH ≈ $800k at genesis prices; aff2 ≈ $1.3k.
        let census = ctx.affiliate_tiers(&[aff1, aff2], [10_000.0, 100_000.0, 1_000_000.0]);
        assert_eq!(census.total(), 2);
        assert_eq!(census.levels, [1, 0, 1, 0]);
        // Stricter thresholds push everyone down.
        let census = ctx.affiliate_tiers(&[aff1, aff2], [100_000.0, 1_000_000.0, 5_000_000.0]);
        assert_eq!(census.levels, [1, 1, 0, 0]);
    }

    #[test]
    fn rewards_exclude_profit_sharing_txs() {
        let (mut chain, ds, op, aff1, aff2) = setup();
        // A reward payment and an unrelated payment to a stranger.
        let stranger = chain.create_eoa(b"m/stranger").unwrap();
        chain.advance(12);
        chain.transfer_eth(op, aff1, ether(3)).unwrap();
        chain.transfer_eth(op, stranger, ether(1)).unwrap();
        let oracle = Oracle::new();
        let ctx = MeasureCtx::new(&chain, &ds, &oracle);
        let report = ctx.reward_transfers(&[op], &[aff1, aff2]);
        assert_eq!(report.transfers, 1);
        assert_eq!(report.total_wei, ether(3));
        assert_eq!(report.affiliates_rewarded, 1);
    }

    #[test]
    fn no_rewards_when_none_paid() {
        let (chain, ds, op, aff1, aff2) = setup();
        let oracle = Oracle::new();
        let ctx = MeasureCtx::new(&chain, &ds, &oracle);
        let report = ctx.reward_transfers(&[op], &[aff1, aff2]);
        assert_eq!(report.transfers, 0);
        assert_eq!(report.total_wei, U256::ZERO);
    }
}
