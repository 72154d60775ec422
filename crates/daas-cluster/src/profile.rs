//! Contract-implementation profiling (Table 3): how each family's
//! contracts receive ETH and sweep tokens, recovered from observed call
//! metadata.
//!
//! The paper decompiled bytecode with Dedaub; our ledger exposes the
//! equivalent observable — the selector/function of each profit-sharing
//! transaction's outer call — so the profile is recovered behaviourally.

use std::collections::BTreeMap;

use daas_chain::{Asset, Chain};
use daas_detector::{Dataset, FeatureCache};
use serde::{Deserialize, Serialize};

use crate::families::Family;

/// A family's phishing-function profile (one Table 3 row).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ContractProfile {
    /// Family name.
    pub family: String,
    /// How victim ETH enters, in the paper's wording: `"a payable
    /// function named X"` or `"a payable fallback function"`. `None` if
    /// the family has no observed ETH drains.
    pub eth_entry: Option<String>,
    /// Token/NFT sweep mechanism (`"a Multicall function"` when
    /// `multicall` calls are observed). `None` if no token drains seen.
    pub token_entry: Option<String>,
}

/// Builds the Table 3 row for one family from its observed transactions.
/// Thin wrapper over [`contract_profile_with`] with a throwaway
/// [`FeatureCache`]; batch callers (Table 3, `family_forensics`)
/// should share one cache across families instead.
pub fn contract_profile(chain: &Chain, dataset: &Dataset, family: &Family) -> ContractProfile {
    contract_profile_with(chain, family, &FeatureCache::new(chain, dataset))
}

/// Builds the Table 3 row for one family, resolving observations through
/// the shared [`FeatureCache`] index (`O(1)` per transaction instead of
/// a linear probe of the observation list).
pub fn contract_profile_with(
    chain: &Chain,
    family: &Family,
    features: &FeatureCache<'_>,
) -> ContractProfile {
    // Majority vote over ETH-deposit transactions (value > 0): these are
    // the victim-facing payable entries. NFT liquidation payouts carry
    // no deposit and are excluded.
    let mut eth_names: BTreeMap<Option<String>, usize> = BTreeMap::new();
    let mut saw_multicall = false;
    for &txid in &family.ps_txs {
        let tx = chain.tx(txid);
        let Some(obs) = features.observation(txid) else { continue };
        match obs.asset {
            Asset::Eth if !tx.value().is_zero() => {
                *eth_names.entry(tx.function().map(str::to_owned)).or_default() += 1;
            }
            Asset::Erc20(_) if tx.function() == Some("multicall") => {
                saw_multicall = true;
            }
            _ => {}
        }
    }
    let eth_entry = eth_names
        .into_iter()
        .max_by_key(|(_, n)| *n)
        .map(|(name, _)| match name {
            Some(n) => format!("a payable function named {n}"),
            None => "a payable fallback function".to_owned(),
        });
    let token_entry = saw_multicall.then(|| "a Multicall function".to_owned());
    ContractProfile { family: family.name.clone(), eth_entry, token_entry }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daas_chain::{ContractKind, EntryStyle, ProfitSharingSpec, TokenKind};
    use daas_detector::classify_tx;
    use eth_types::units::ether;
    use eth_types::U256;

    fn family_with(entry: EntryStyle, with_erc20: bool) -> (Chain, Dataset, Family) {
        let mut chain = Chain::new();
        let op = chain.create_eoa_funded(b"op", ether(10)).unwrap();
        let aff = chain.create_eoa(b"aff").unwrap();
        let victim = chain.create_eoa_funded(b"v", ether(100)).unwrap();
        let contract = chain
            .deploy_contract(
                op,
                ContractKind::ProfitSharing(ProfitSharingSpec {
                    operator: op,
                    operator_bps: 2000,
                    entry,
                }),
            )
            .unwrap();
        let mut dataset = Dataset::default();
        chain.advance(12);
        let tx = chain.claim_eth(victim, contract, ether(5), aff).unwrap();
        dataset.absorb(classify_tx(chain.tx(tx), &Default::default()).unwrap());
        if with_erc20 {
            let token = chain.deploy_token(op, "USDC", 6, TokenKind::Erc20).unwrap();
            chain.mint_erc20(token, victim, U256::from_u64(1_000_000)).unwrap();
            chain.approve_erc20(victim, token, contract, U256::MAX).unwrap();
            chain.advance(12);
            let tx = chain
                .drain_erc20(op, contract, token, victim, U256::from_u64(1_000_000), aff)
                .unwrap();
            dataset.absorb(classify_tx(chain.tx(tx), &Default::default()).unwrap());
        }
        let family = Family {
            id: 0,
            name: "Test".into(),
            operators: vec![op],
            contracts: vec![contract],
            affiliates: vec![aff],
            ps_txs: dataset.ps_txs.iter().copied().collect(),
        };
        (chain, dataset, family)
    }

    #[test]
    fn named_claim_profile() {
        let (chain, ds, fam) = family_with(EntryStyle::NamedPayable("Claim".into()), true);
        let p = contract_profile(&chain, &ds, &fam);
        assert_eq!(p.eth_entry.as_deref(), Some("a payable function named Claim"));
        assert_eq!(p.token_entry.as_deref(), Some("a Multicall function"));
    }

    #[test]
    fn fallback_profile() {
        let (chain, ds, fam) = family_with(EntryStyle::PayableFallback, false);
        let p = contract_profile(&chain, &ds, &fam);
        assert_eq!(p.eth_entry.as_deref(), Some("a payable fallback function"));
        assert_eq!(p.token_entry, None);
    }

    #[test]
    fn network_merge_matches_pink_wording() {
        let (chain, ds, fam) =
            family_with(EntryStyle::NamedPayable("Network Merge".into()), false);
        let p = contract_profile(&chain, &ds, &fam);
        assert_eq!(p.eth_entry.as_deref(), Some("a payable function named Network Merge"));
    }
}
