//! Victim attribution and USD valuation of profit-sharing transactions.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use daas_chain::{Asset, AssetRef, Chain, Timestamp, TxId};
use daas_detector::{Dataset, FeatureCache};
use daas_pricing::Oracle;
use eth_types::Address;

use crate::tables::Tables;

/// One profit-sharing transaction, attributed and valued.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredIncident {
    /// The profit-sharing transaction.
    pub tx: TxId,
    /// When it confirmed.
    pub timestamp: Timestamp,
    /// The account that lost the funds.
    pub victim: Address,
    /// The profit-sharing contract.
    pub contract: Address,
    /// Operator account (smaller share).
    pub operator: Address,
    /// Affiliate account (larger share).
    pub affiliate: Address,
    /// Matched operator ratio, basis points.
    pub ratio_bps: u32,
    /// Victim's loss in USD (operator + affiliate shares at tx-time
    /// prices).
    pub usd: f64,
    /// Operator's share in USD.
    pub operator_usd: f64,
    /// Affiliate's share in USD.
    pub affiliate_usd: f64,
}

/// Measurement context: chain + dataset + oracle, with incidents
/// attributed once at construction and the tables the reports share
/// (`tables.rs`) built on first use.
pub struct MeasureCtx<'a> {
    /// The ledger.
    pub chain: &'a Chain,
    /// The discovered dataset.
    pub dataset: &'a Dataset,
    /// The price oracle.
    pub oracle: &'a Oracle,
    incidents: std::sync::Arc<Vec<MeasuredIncident>>,
    features: FeatureCache<'a>,
    tables: OnceLock<Tables>,
}

impl<'a> MeasureCtx<'a> {
    /// Builds the context, attributing every observation to a victim and
    /// valuing it in USD. Observations whose token has no quote are kept
    /// with `usd = 0` (the paper similarly cannot price long-tail
    /// tokens).
    ///
    /// Incidents are canonicalised to transaction order so every float
    /// rollup accumulates in the same order regardless of how the
    /// dataset's observation vector was assembled (batch snowball rounds
    /// and the streaming detector discover the same set in different
    /// orders).
    pub fn new(chain: &'a Chain, dataset: &'a Dataset, oracle: &'a Oracle) -> Self {
        let mut order: Vec<(TxId, u32)> =
            dataset.observations.iter().enumerate().map(|(i, o)| (o.tx, i as u32)).collect();
        order.sort_unstable();
        let incidents = order
            .into_iter()
            .map(|(_, i)| measure_observation(chain, oracle, &dataset.observations[i as usize]))
            .collect();
        Self::from_incidents(chain, dataset, oracle, std::sync::Arc::new(incidents))
    }

    /// Builds the context around incidents that were already attributed
    /// and valued (the streaming path: `LiveMeasure` re-uses its running
    /// incident set instead of re-walking the chain). `incidents` must be
    /// in transaction order — the canonical order [`MeasureCtx::new`]
    /// produces. The vector is `Arc`-shared so the streaming path can
    /// hand over its cached canonical set without copying it.
    pub fn from_incidents(
        chain: &'a Chain,
        dataset: &'a Dataset,
        oracle: &'a Oracle,
        incidents: std::sync::Arc<Vec<MeasuredIncident>>,
    ) -> Self {
        debug_assert!(
            incidents.windows(2).all(|w| w[0].tx < w[1].tx),
            "incidents must be unique and in transaction order"
        );
        MeasureCtx {
            chain,
            dataset,
            oracle,
            incidents,
            features: FeatureCache::new(chain, dataset),
            tables: OnceLock::new(),
        }
    }

    /// The attributed incidents, in transaction order.
    pub fn incidents(&self) -> &[MeasuredIncident] {
        &self.incidents
    }

    /// The shared per-account feature extractor (`Sync`).
    pub fn features(&self) -> &FeatureCache<'a> {
        &self.features
    }

    /// The role ranks and aggregates every report reads, built on first
    /// use.
    pub(crate) fn tables(&self) -> &Tables {
        self.tables.get_or_init(|| Tables::new(&self.incidents))
    }

    /// Distinct victim accounts, sorted.
    pub fn victims(&self) -> Vec<Address> {
        self.tables().victims.clone()
    }

    /// Total USD loss per victim, each summed in transaction order. A
    /// `BTreeMap` so every consumer iterates (and float-accumulates) in
    /// address order — byte-stable across runs, which the
    /// parallel-equivalence suite relies on.
    pub fn loss_per_victim(&self) -> BTreeMap<Address, f64> {
        let t = self.tables();
        t.victims.iter().copied().zip(t.loss_per_victim.iter().copied()).collect()
    }

    /// Total USD profit per operator account, in address order (see
    /// [`MeasureCtx::loss_per_victim`]).
    pub fn profit_per_operator(&self) -> BTreeMap<Address, f64> {
        let t = self.tables();
        t.operators.iter().copied().zip(t.profit_per_operator.iter().copied()).collect()
    }

    /// Total USD profit per affiliate account, in address order (see
    /// [`MeasureCtx::loss_per_victim`]).
    pub fn profit_per_affiliate(&self) -> BTreeMap<Address, f64> {
        let t = self.tables();
        t.affiliates.iter().copied().zip(t.profit_per_affiliate.iter().copied()).collect()
    }
}

/// Attributes and values a single profit-sharing observation — the unit
/// of work behind both [`MeasureCtx::new`] and the streaming
/// accumulator's per-event ingestion.
pub(crate) fn measure_observation(
    chain: &Chain,
    oracle: &Oracle,
    obs: &daas_detector::PsObservation,
) -> MeasuredIncident {
    let tx = chain.tx(obs.tx);
    let victim = attribute_victim(chain, obs);
    let value_usd = |amount| match obs.asset {
        Asset::Eth => oracle.wei_to_usd(amount, obs.timestamp),
        Asset::Erc20(token) => oracle.token_to_usd(token, amount, obs.timestamp).unwrap_or(0.0),
        Asset::Erc721 { .. } => 0.0,
    };
    let operator_usd = value_usd(obs.operator_amount);
    let affiliate_usd = value_usd(obs.affiliate_amount);
    MeasuredIncident {
        tx: obs.tx,
        timestamp: tx.timestamp(),
        victim,
        contract: obs.contract,
        operator: obs.operator,
        affiliate: obs.affiliate,
        ratio_bps: obs.ratio_bps,
        usd: operator_usd + affiliate_usd,
        operator_usd,
        affiliate_usd,
    }
}

/// Attributes the victim of an observation:
/// * token sweeps: the transfer source (the approving victim);
/// * payable-entry ETH drains: the depositing sender;
/// * deposit-less ETH payouts (NFT liquidations): walk the contract's
///   history backwards for the most recent NFT transferred *into* the
///   contract — its previous owner is the victim.
fn attribute_victim(chain: &Chain, obs: &daas_detector::PsObservation) -> Address {
    if obs.source != obs.contract {
        return obs.source; // transferFrom sweep: source is the victim
    }
    let tx = chain.tx(obs.tx);
    if !tx.value().is_zero() {
        return tx.from(); // payable entry: the depositor
    }
    // NFT liquidation payout: find the latest inbound NFT before this
    // tx. The contract is the transaction's target, so its id comes
    // from the `to` column.
    let store = chain.transactions();
    let contract = tx.to_id();
    let history = chain.txs_of_id(contract);
    let pos = history.partition_point(|&id| id < obs.tx);
    for &txid in history[..pos].iter().rev() {
        let cols = store.view(txid).transfer_columns();
        for i in 0..cols.to.len() {
            if cols.to[i] == contract && matches!(cols.asset[i], AssetRef::Erc721 { .. }) {
                return store.resolve(cols.from[i]);
            }
        }
    }
    // Fallback: no NFT inbound found (shouldn't happen on well-formed
    // traces) — attribute to the caller.
    tx.from()
}

#[cfg(test)]
mod tests {
    use super::*;
    use daas_chain::{ContractKind, EntryStyle, ProfitSharingSpec, TokenKind};
    use daas_detector::classify_tx;
    use eth_types::units::ether;
    use eth_types::U256;

    struct Fixture {
        chain: Chain,
        dataset: Dataset,
        oracle: Oracle,
        victim: Address,
        operator: Address,
        affiliate: Address,
    }

    fn fixture() -> Fixture {
        let mut chain = Chain::new();
        let oracle = Oracle::new();
        let operator = chain.create_eoa_funded(b"op", ether(10)).unwrap();
        let affiliate = chain.create_eoa(b"aff").unwrap();
        let victim = chain.create_eoa_funded(b"v", ether(100)).unwrap();
        let contract = chain
            .deploy_contract(
                operator,
                ContractKind::ProfitSharing(ProfitSharingSpec {
                    operator,
                    operator_bps: 2000,
                    entry: EntryStyle::PayableFallback,
                }),
            )
            .unwrap();
        let mut dataset = Dataset::default();

        // ETH drain.
        chain.advance(12);
        let tx = chain.claim_eth(victim, contract, ether(10), affiliate).unwrap();
        dataset.absorb(classify_tx(chain.tx(tx), &Default::default()).unwrap());

        // NFT drain → sale → distribution.
        let nft = chain.deploy_token(operator, "AZUKI", 0, TokenKind::Erc721).unwrap();
        let mowner = chain.create_eoa_funded(b"mo", ether(1)).unwrap();
        let market = chain.deploy_contract(mowner, ContractKind::Marketplace).unwrap();
        chain.mint_eth(market, ether(1_000)).unwrap();
        chain.mint_nft(nft, victim, 5).unwrap();
        chain.approve_nft_all(victim, nft, contract, true).unwrap();
        chain.advance(12);
        chain.drain_nft(operator, contract, nft, victim, 5).unwrap();
        chain.advance(12);
        chain.sell_nft(operator, market, nft, 5, contract, ether(20)).unwrap();
        chain.advance(12);
        let tx = chain.distribute_eth(operator, contract, ether(20), affiliate).unwrap();
        dataset.absorb(classify_tx(chain.tx(tx), &Default::default()).unwrap());

        Fixture { chain, dataset, oracle, victim, operator, affiliate }
    }

    #[test]
    fn attributes_depositor_and_nft_victim() {
        let f = fixture();
        let ctx = MeasureCtx::new(&f.chain, &f.dataset, &f.oracle);
        assert_eq!(ctx.incidents().len(), 2);
        for inc in ctx.incidents() {
            assert_eq!(inc.victim, f.victim, "victim misattributed");
        }
        assert_eq!(ctx.victims(), vec![f.victim]);
    }

    #[test]
    fn usd_valuation_sums_shares() {
        let f = fixture();
        let ctx = MeasureCtx::new(&f.chain, &f.dataset, &f.oracle);
        // 10 ETH at genesis ≈ $16,000 (minus nothing; dust is sub-cent).
        let eth_inc = &ctx.incidents()[0];
        assert!((eth_inc.usd - 16_000.0).abs() < 1.0, "usd {}", eth_inc.usd);
        assert!((eth_inc.operator_usd - 3_200.0).abs() < 1.0);
        assert!((eth_inc.affiliate_usd - 12_800.0).abs() < 1.0);
        // Rollups.
        let ops = ctx.profit_per_operator();
        assert!((ops[&f.operator] - (3_200.0 + 6_400.0)).abs() < 2.0);
        let affs = ctx.profit_per_affiliate();
        assert!((affs[&f.affiliate] - (12_800.0 + 25_600.0)).abs() < 2.0);
        let losses = ctx.loss_per_victim();
        assert!((losses[&f.victim] - 48_000.0).abs() < 2.0);
    }

    #[test]
    fn erc20_victim_is_source() {
        let mut f = fixture();
        let token = {
            let op = f.operator;
            f.chain.deploy_token(op, "USDC", 6, TokenKind::Erc20).unwrap()
        };
        let mut oracle = Oracle::new();
        oracle.set_quote(token, daas_pricing::Quote::Stable { units_per_usd: 1_000_000 });
        let contract = f.dataset.contracts.iter().next().copied().unwrap();
        f.chain.mint_erc20(token, f.victim, U256::from_u64(10_000_000)).unwrap();
        f.chain.approve_erc20(f.victim, token, contract, U256::MAX).unwrap();
        f.chain.advance(12);
        let tx = f
            .chain
            .drain_erc20(f.operator, contract, token, f.victim, U256::from_u64(10_000_000), f.affiliate)
            .unwrap();
        f.dataset.absorb(classify_tx(f.chain.tx(tx), &Default::default()).unwrap());
        let ctx = MeasureCtx::new(&f.chain, &f.dataset, &oracle);
        let inc = ctx.incidents().last().unwrap();
        assert_eq!(inc.victim, f.victim);
        assert!((inc.usd - 10.0).abs() < 1e-6, "usd {}", inc.usd);
    }

    #[test]
    fn unquoted_token_values_zero() {
        let mut f = fixture();
        let token = f.chain.deploy_token(f.operator, "SHIB", 18, TokenKind::Erc20).unwrap();
        let contract = f.dataset.contracts.iter().next().copied().unwrap();
        f.chain.mint_erc20(token, f.victim, ether(1)).unwrap();
        f.chain.approve_erc20(f.victim, token, contract, U256::MAX).unwrap();
        f.chain.advance(12);
        let tx = f
            .chain
            .drain_erc20(f.operator, contract, token, f.victim, ether(1), f.affiliate)
            .unwrap();
        f.dataset.absorb(classify_tx(f.chain.tx(tx), &Default::default()).unwrap());
        let ctx = MeasureCtx::new(&f.chain, &f.dataset, &f.oracle);
        assert_eq!(ctx.incidents().last().unwrap().usd, 0.0);
    }

    /// The bundle the address-keyed reports gave for
    /// `accounts_the_chain_never_saw_change_no_report`'s fixture.
    const GHOST_REPORTS: &str = concat!(
        r#"{"victims":{"victims":1,"loss_buckets":[["less than $100",0,0.0],["between $100 and $1,"#,
        r#"000",0,0.0],["between $1,000 and $5,000",0,0.0],["more than $5,000",1,100.0]],"#,
        r#""below_1k_pct":0.0,"victims_per_day":1.0,"total_usd":48000.080645161295},"#,
        r#""repeat_victims":{"repeat_victims":1,"simultaneous_pct":0.0,"unrevoked_pct":100.0},"#,
        r#""operators":{"operators":1,"total_usd":9600.016129032258,"concentration":{"accounts":1,"#,
        r#""total":9600.016129032258,"top_quartile_share_pct":100.0,"accounts_for_75pct":1,"#,
        r#""accounts_for_75pct_share":100.0},"top_quartile_count":1,"#,
        r#""top_quartile_usd":9600.016129032258,"top_quartile_share_pct":100.0,"linked_pairs":0},"#,
        r#""operator_lifecycles":{"inactive_operators":1,"lifecycle_days":[0.0],"min_days":0.0,"#,
        r#""max_days":0.0},"#,
        r#""affiliates":{"affiliates":1,"total_usd":38400.06451612903,"#,
        r#""profit_buckets":[["less than $1,000",0,0.0],["between $1,000 and $10,000",0,0.0],"#,
        r#"["between $10,000 and $50,000",1,100.0],["more than $50,000",0,0.0]],"#,
        r#""above_1k_pct":100.0,"above_10k_pct":100.0,"over_10_victims_pct":0.0,"#,
        r#""single_operator_pct":100.0,"up_to_3_operators_pct":100.0,"concentration":{"accounts":1,"#,
        r#""total":38400.06451612903,"top_quartile_share_pct":100.0,"accounts_for_75pct":1,"#,
        r#""accounts_for_75pct_share":100.0},"top_7_4_pct_share":100.0},"#,
        r#""associations":{"transfers":0,"total_wei":"0","affiliates_rewarded":0},"#,
        r#""ratios":[{"bps":2000,"count":2,"share_pct":100.0}],"#,
        r#""timeline":[{"month":"2023-03","victims":1,"incidents":2,"usd":48000.080645161295}],"#,
        r#""laundering":{"operator_outflows":{},"operator_mixer_pct":0.0,"#,
        r#""operator_exchange_pct":0.0,"operators_using_mixers":0}}"#,
    );

    /// Accounts a hand-built dataset names but the chain never interned
    /// (an operator, a contract and an affiliate with no history) take
    /// no part in any report; the bundle reads as it did when the
    /// reports keyed every table by address (pinned from that version).
    #[test]
    fn accounts_the_chain_never_saw_change_no_report() {
        let mut f = fixture();
        for (i, ghost) in [[0x51u8; 20], [0x52; 20], [0x53; 20]].into_iter().enumerate() {
            let ghost = Address(ghost);
            assert_eq!(f.chain.addr_id(ghost), None);
            match i {
                0 => f.dataset.operators.insert(ghost),
                1 => f.dataset.contracts.insert(ghost),
                _ => f.dataset.affiliates.insert(ghost),
            };
        }
        let ctx = MeasureCtx::new(&f.chain, &f.dataset, &f.oracle);
        let labels = daas_chain::LabelStore::new();
        let as_of = f.chain.now() + 60 * 86_400;
        let reports = ctx.reports(&labels, 3600, as_of, &crate::MeasureConfig::sequential());
        let json = serde_json::to_string(&reports).unwrap();
        assert_eq!(json, GHOST_REPORTS);
    }
}
