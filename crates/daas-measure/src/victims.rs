//! Victim-side measurements: Figure 6 and the §6.1 findings.

use std::collections::BTreeSet;

use daas_chain::{days_between, Chain};
use eth_types::{AddrId, Address, FxHashSet};
use serde::{Deserialize, Serialize};

use crate::incidents::MeasureCtx;

/// Figure 6 buckets: `(label, low, high)` in USD.
pub const VICTIM_LOSS_BUCKETS: [(&str, f64, f64); 4] = [
    ("less than $100", 0.0, 100.0),
    ("between $100 and $1,000", 100.0, 1_000.0),
    ("between $1,000 and $5,000", 1_000.0, 5_000.0),
    ("more than $5,000", 5_000.0, f64::INFINITY),
];

/// The victim-side report (§6.1 / Figure 6).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VictimReport {
    /// Distinct victim accounts.
    pub victims: usize,
    /// Figure 6 rows: `(label, count, percent)`.
    pub loss_buckets: Vec<(String, usize, f64)>,
    /// Share of victims losing under $1,000 (paper: 83.5%).
    pub below_1k_pct: f64,
    /// Mean distinct victims per day over the observed span (paper:
    /// "exceeding 100 per day").
    pub victims_per_day: f64,
    /// Total losses, USD.
    pub total_usd: f64,
}

/// Builds the Figure 6 / §6.1 report from per-victim losses, in address
/// order, and the observed span — shared by the batch context and the
/// streaming accumulator's running loss map.
pub(crate) fn victim_report_from(
    losses: impl ExactSizeIterator<Item = f64> + Clone,
    span_days: u64,
) -> VictimReport {
    let victims = losses.len();
    let mut counts = [0usize; 4];
    for usd in losses.clone() {
        let idx = VICTIM_LOSS_BUCKETS
            .iter()
            .position(|(_, lo, hi)| usd >= *lo && usd < *hi)
            .unwrap_or(3);
        counts[idx] += 1;
    }
    let pct = |n: usize| 100.0 * n as f64 / victims.max(1) as f64;
    let loss_buckets = VICTIM_LOSS_BUCKETS
        .iter()
        .zip(counts)
        .map(|((label, _, _), n)| ((*label).to_owned(), n, pct(n)))
        .collect();
    VictimReport {
        victims,
        loss_buckets,
        below_1k_pct: pct(counts[0] + counts[1]),
        victims_per_day: victims as f64 / span_days.max(1) as f64,
        total_usd: losses.sum(),
    }
}

/// The observed span in days for a `(first, last)` timestamp fold
/// (`u64::MAX` first means "no incidents"; empty spans count as one day).
pub(crate) fn span_days(first: u64, last: u64) -> u64 {
    if first == u64::MAX {
        1
    } else {
        days_between(first, last).max(1)
    }
}

impl<'a> MeasureCtx<'a> {
    /// Builds the Figure 6 / §6.1 victim report.
    pub fn victim_report(&self) -> VictimReport {
        let t = self.tables();
        let (first, last) =
            t.timestamps.iter().fold((u64::MAX, 0u64), |(lo, hi), &ts| (lo.min(ts), hi.max(ts)));
        victim_report_from(t.loss_per_victim.iter().copied(), span_days(first, last))
    }

    /// The §6.1 repeat-victim study.
    pub fn repeat_victim_report(&self) -> RepeatVictimReport {
        let t = self.tables();
        let is_repeat = |v: u32| t.incidents_per_victim[v as usize] > 1;
        let repeats = t.incidents_per_victim.iter().filter(|&&n| n > 1).count();

        // (a) simultaneous multi-sign: ≥ 2 profit-sharing txs in the same
        // block timestamp.
        let mut signed: Vec<(u32, u64)> = t
            .victim_of
            .iter()
            .zip(&t.timestamps)
            .filter(|(&v, _)| is_repeat(v))
            .map(|(&v, &ts)| (v, ts))
            .collect();
        signed.sort_unstable();
        let mut simultaneous = 0;
        for victim in signed.chunk_by(|a, b| a.0 == b.0) {
            if victim.windows(2).any(|w| w[0].1 == w[1].1) {
                simultaneous += 1;
            }
        }

        // (b) unrevoked approvals: the victim still has an active
        // ERC-20 allowance or NFT operator approval toward a dataset
        // contract at the end of the observation window.
        let approving = approving_owners(self.chain, &self.dataset.contracts);
        let unrevoked = t
            .victims
            .iter()
            .zip(&t.incidents_per_victim)
            .filter(|&(&victim, &n)| {
                n > 1 && self.chain.addr_id(victim).is_some_and(|id| approving.contains(&id))
            })
            .count();

        RepeatVictimReport {
            repeat_victims: repeats,
            simultaneous_pct: 100.0 * simultaneous as f64 / repeats.max(1) as f64,
            unrevoked_pct: 100.0 * unrevoked as f64 / repeats.max(1) as f64,
        }
    }
}

/// The accounts holding a live approval toward one of `contracts`, in
/// one pass over the chain's live approvals. Each of those was set by
/// an approval transaction of its owner, so this is what a walk of each
/// owner's approval history (`FeatureCache::features`) finds.
fn approving_owners(chain: &Chain, contracts: &BTreeSet<Address>) -> FxHashSet<AddrId> {
    let contracts: FxHashSet<AddrId> = contracts.iter().filter_map(|&c| chain.addr_id(c)).collect();
    chain
        .live_approvals()
        .filter(|(_, spender)| contracts.contains(spender))
        .map(|(owner, _)| owner)
        .collect()
}

/// The §6.1 repeat-victim findings.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RepeatVictimReport {
    /// Victims phished more than once (paper: 8,856).
    pub repeat_victims: usize,
    /// Share who signed multiple phishing txs simultaneously (paper:
    /// 78.1%).
    pub simultaneous_pct: f64,
    /// Share who never revoked approvals to profit-sharing contracts
    /// (paper: 28.6%).
    pub unrevoked_pct: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use daas_chain::{ContractKind, EntryStyle, ProfitSharingSpec, TokenKind};
    use daas_detector::{Dataset, FeatureCache};
    use eth_types::units::ether;
    use eth_types::U256;

    /// The one-pass approval count equals the per-victim history walk on
    /// every way an approval ends: revoked, consumed by a permit, spent
    /// in part or in full, an NFT operator approval revoked or kept, and
    /// one toward a contract outside the dataset.
    #[test]
    fn approving_owners_match_the_per_victim_walk() {
        let mut chain = Chain::new();
        let operator = chain.create_eoa_funded(b"rv/op", ether(1)).unwrap();
        let affiliate = chain.create_eoa(b"rv/aff").unwrap();
        let spec =
            ProfitSharingSpec { operator, operator_bps: 2000, entry: EntryStyle::PayableFallback };
        let contract = chain.deploy_contract(operator, ContractKind::ProfitSharing(spec)).unwrap();
        let other = chain.deploy_contract(operator, ContractKind::Benign).unwrap();
        let token = chain.deploy_token(operator, "USDC", 6, TokenKind::Erc20).unwrap();
        let nft = chain.deploy_token(operator, "AZUKI", 0, TokenKind::Erc721).unwrap();
        let victims: Vec<Address> = (0..7)
            .map(|i| chain.create_eoa_funded(format!("rv/victim{i}").as_bytes(), ether(1)).unwrap())
            .collect();
        for (i, &victim) in victims.iter().enumerate() {
            chain.mint_erc20(token, victim, U256::from_u64(1_000)).unwrap();
            chain.mint_nft(nft, victim, i as u64).unwrap();
        }
        let amount = U256::from_u64;
        let drain = |chain: &mut Chain, victim, n| {
            chain.drain_erc20(operator, contract, token, victim, amount(n), affiliate).unwrap();
        };
        // Approved, then revoked.
        chain.approve_erc20(victims[0], token, contract, U256::MAX).unwrap();
        chain.approve_erc20(victims[0], token, contract, U256::ZERO).unwrap();
        // A permit, consumed in its own transaction.
        chain
            .drain_erc20_permit(operator, contract, token, victims[1], amount(500), affiliate)
            .unwrap();
        // Spent in part: still live.
        chain.approve_erc20(victims[2], token, contract, amount(800)).unwrap();
        drain(&mut chain, victims[2], 300);
        // Spent in full: a zero allowance stays on record.
        chain.approve_erc20(victims[3], token, contract, amount(300)).unwrap();
        drain(&mut chain, victims[3], 300);
        // An NFT operator approval, later revoked.
        chain.approve_nft_all(victims[4], nft, contract, true).unwrap();
        chain.drain_nft(operator, contract, nft, victims[4], 4).unwrap();
        chain.approve_nft_all(victims[4], nft, contract, false).unwrap();
        // An NFT operator approval kept.
        chain.approve_nft_all(victims[5], nft, contract, true).unwrap();
        // An unlimited allowance toward a contract outside the dataset.
        chain.approve_erc20(victims[6], token, other, U256::MAX).unwrap();

        let mut dataset = Dataset::default();
        dataset.contracts.insert(contract);
        let approving = approving_owners(&chain, &dataset.contracts);
        let features = FeatureCache::new(&chain, &dataset);
        for (i, &victim) in victims.iter().enumerate() {
            let walked = !features.features(victim).live_approval_spenders.is_empty();
            let marked = approving.contains(&chain.addr_id(victim).unwrap());
            assert_eq!(marked, walked, "victim {i}");
            assert_eq!(marked, i == 2 || i == 5, "victim {i}");
        }
        assert_eq!(approving.len(), 2, "only victims hold approvals toward the contract");
    }

    #[test]
    fn buckets_cover_the_line() {
        // Boundary semantics: lows inclusive, highs exclusive; the last
        // bucket is open-ended.
        for (usd, expect) in [(0.0, 0), (99.99, 0), (100.0, 1), (999.0, 1), (1_000.0, 2), (5_000.0, 3), (1e9, 3)] {
            let idx = VICTIM_LOSS_BUCKETS
                .iter()
                .position(|(_, lo, hi)| usd >= *lo && usd < *hi)
                .unwrap_or(3);
            assert_eq!(idx, expect, "usd {usd}");
        }
    }
}
