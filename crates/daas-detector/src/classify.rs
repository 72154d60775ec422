//! The profit-sharing transaction classifier (§4.3 / §5.1 step 2).

use daas_chain::{Asset, Timestamp, TxId, TxStore, TxView};
use eth_types::{AddrId, Address, U256};
use serde::{Deserialize, Serialize};

/// The nine operator ratios observed in the wild (§4.3), in basis points.
pub const DEFAULT_RATIOS_BPS: [u32; 9] = [1000, 1250, 1500, 1750, 2000, 2500, 3000, 3300, 4000];

/// Classifier parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassifierConfig {
    /// Accepted operator ratios in basis points.
    pub ratios_bps: Vec<u32>,
    /// Relative tolerance when matching the observed split against a
    /// ratio (absorbs integer-division dust; ablation A1).
    pub tolerance: f64,
    /// Require the source account to have *exactly* two outgoing
    /// transfers in the transaction (ablation A5). When false, a
    /// two-transfer subset that fits a ratio among extra dust transfers
    /// is accepted.
    pub strict_two_transfers: bool,
}

impl Default for ClassifierConfig {
    fn default() -> Self {
        ClassifierConfig {
            ratios_bps: DEFAULT_RATIOS_BPS.to_vec(),
            tolerance: 0.005,
            strict_two_transfers: true,
        }
    }
}

/// A positive classification: one profit-sharing transaction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PsObservation {
    /// The classified transaction.
    pub tx: TxId,
    /// When it happened.
    pub timestamp: Timestamp,
    /// The account both transfers originate from (the contract for ETH
    /// payouts, the victim for `transferFrom` sweeps).
    pub source: Address,
    /// The invoked contract (`tx.to`) — the profit-sharing contract
    /// candidate.
    pub contract: Address,
    /// Smaller-share recipient.
    pub operator: Address,
    /// Larger-share recipient.
    pub affiliate: Address,
    /// Amount received by the operator.
    pub operator_amount: U256,
    /// Amount received by the affiliate.
    pub affiliate_amount: U256,
    /// The matched operator ratio, basis points.
    pub ratio_bps: u32,
    /// Asset class of the split (ETH or a token contract).
    pub asset: Asset,
}

/// A positive verdict as the classification table stores it, in 28
/// bytes: the interned ids of its three roles, read from the transfer
/// columns so membership can be kept by id, and where in the transaction
/// the split is. [`Positive::observation`] reads the rest back from the
/// arena.
#[derive(Debug)]
pub(crate) struct Positive {
    /// The classified transaction.
    pub(crate) tx: TxId,
    /// The invoked contract (the transaction's `to`).
    pub(crate) contract: AddrId,
    /// Smaller-share recipient.
    pub(crate) operator: AddrId,
    /// Larger-share recipient.
    pub(crate) affiliate: AddrId,
    /// The operator's and the affiliate's transfer, as indices into the
    /// transaction's transfer columns.
    small: u32,
    large: u32,
    ratio_bps: u32,
}

impl Positive {
    /// The observation [`classify_tx`] returns for this positive.
    pub(crate) fn observation(&self, store: &TxStore) -> PsObservation {
        let tx = store.view(self.tx);
        let cols = tx.transfer_columns();
        let (small, large) = (self.small as usize, self.large as usize);
        PsObservation {
            tx: self.tx,
            timestamp: tx.timestamp(),
            source: store.resolve(cols.from[small]),
            contract: store.resolve(self.contract),
            operator: store.resolve(self.operator),
            affiliate: store.resolve(self.affiliate),
            operator_amount: cols.amount[small],
            affiliate_amount: cols.amount[large],
            ratio_bps: self.ratio_bps,
            asset: store.resolve_asset(cols.asset[small]),
        }
    }
}

/// Classifies one transaction. Returns the observation if the fund flow
/// has the profit-sharing shape, `None` otherwise.
///
/// The rule, per the paper:
/// * the fund flow consists of two transfers,
/// * both transfers originate from the same account,
/// * the amounts adhere to one of the known proportions, operator share
///   strictly the smaller one.
pub fn classify_tx(tx: TxView<'_>, cfg: &ClassifierConfig) -> Option<PsObservation> {
    classify_positive(tx, cfg).map(|p| p.observation(tx.store()))
}

/// [`classify_tx`] keeping the roles' interned ids.
pub(crate) fn classify_positive(tx: TxView<'_>, cfg: &ClassifierConfig) -> Option<Positive> {
    let contract = tx.to_id().get()?;
    let cols = tx.transfer_columns();

    // Fast path: a split needs at least two fungible, non-zero
    // transfers; most transactions carry fewer. This is a linear scan
    // over the dense transfer columns — no pointer chasing, no address
    // materialization.
    let eligible = |i: usize| cols.asset[i].is_fungible() && !cols.amount[i].is_zero();
    if (0..cols.asset.len()).filter(|&i| eligible(i)).count() < 2 {
        return None;
    }

    // Group outgoing transfers by (source, fungible asset), in
    // first-appearance order. Transfer lists are short, so linear scans
    // beat hashing and need no allocation — and the order is
    // deterministic, which the "first qualifying group wins" rule below
    // relies on. Keys are interned (4-byte ids), so each probe is an
    // integer compare.
    let key = |i: usize| (cols.from[i], cols.asset[i]);
    let mut best: Option<Positive> = None;
    let mut best_from_contract = false;
    for first in 0..cols.asset.len() {
        if !eligible(first) || (0..first).any(|j| eligible(j) && key(j) == key(first)) {
            continue; // not the first transfer of its group
        }
        let (source, _) = key(first);
        // The group's size and its two largest transfers, ties to the
        // earlier one (a stable descending sort's first two).
        let mut size = 0usize;
        let mut top: [Option<usize>; 2] = [None, None];
        for i in first..cols.asset.len() {
            if !eligible(i) || key(i) != key(first) {
                continue;
            }
            size += 1;
            let amount = cols.amount[i];
            match top {
                [Some(t0), _] if amount <= cols.amount[t0] => {
                    if top[1].is_none_or(|t1| amount > cols.amount[t1]) {
                        top[1] = Some(i);
                    }
                }
                [t0, _] => top = [Some(i), t0],
            }
        }
        // The outer victim→contract deposit is part of the trace but not
        // of the *outgoing* split; a source with one transfer can never
        // qualify. In strict mode the source must have exactly two, taken
        // in transfer order; relaxed, the two largest.
        let (a, b): (usize, usize) = match (size, top) {
            (2, [Some(t0), Some(t1)]) => (t0.min(t1), t0.max(t1)),
            (n, [Some(t0), Some(t1)]) if n > 2 && !cfg.strict_two_transfers => (t0, t1),
            _ => continue,
        };
        // Self-payments are not profit shares.
        if cols.to[a] == cols.to[b] || cols.to[a] == source || cols.to[b] == source {
            continue;
        }
        let (small, large) =
            if cols.amount[a] <= cols.amount[b] { (a, b) } else { (b, a) };
        let total = cols.amount[small].checked_add(cols.amount[large])?;
        let Some(ratio) = match_ratio(cols.amount[small], total, &cfg.ratios_bps, cfg.tolerance)
        else {
            continue;
        };
        // Prefer the group whose source is the invoked contract (the
        // canonical ETH-payout shape) if several qualify.
        let is_contract_source = source == contract;
        if best.is_none() || (is_contract_source && !best_from_contract) {
            best = Some(Positive {
                tx: tx.id(),
                contract,
                operator: cols.to[small],
                affiliate: cols.to[large],
                small: small as u32,
                large: large as u32,
                ratio_bps: ratio,
            });
            best_from_contract = is_contract_source;
        }
    }
    best
}

/// Matches `small / total` against the ratio list within relative
/// tolerance; returns the matched basis points.
fn match_ratio(small: U256, total: U256, ratios_bps: &[u32], tolerance: f64) -> Option<u32> {
    if total.is_zero() {
        return None;
    }
    let observed = small.to_f64_lossy() / total.to_f64_lossy();
    let mut best: Option<(f64, u32)> = None;
    for &bps in ratios_bps {
        let target = bps as f64 / 10_000.0;
        let err = (observed - target).abs() / target;
        if err <= tolerance {
            match best {
                Some((prev, _)) if prev <= err => {}
                _ => best = Some((err, bps)),
            }
        }
    }
    best.map(|(_, bps)| bps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use daas_chain::{Approval, CallInfo, Transaction, Transfer, TxStore};
    use eth_types::H256;

    fn addr(n: u8) -> Address {
        Address::from_key_seed(&[n])
    }

    fn eth(n: u64) -> U256 {
        U256::from_u128(n as u128 * 1_000_000_000_000_000_000)
    }

    fn tx_with(transfers: Vec<Transfer>, to: Address) -> Transaction {
        Transaction {
            id: 0,
            hash: H256::ZERO,
            block: 0,
            timestamp: 100,
            from: addr(9),
            to: Some(to),
            value: U256::ZERO,
            call: CallInfo::plain(),
            transfers,
            approvals: Vec::<Approval>::new(),
            created: None,
        }
    }

    /// Loads one materialized transaction into an arena and classifies
    /// its columnar view.
    fn classify(tx: Transaction, cfg: &ClassifierConfig) -> Option<PsObservation> {
        let store = TxStore::from_transactions(vec![tx]);
        classify_tx(store.view(0), cfg)
    }

    fn t(from: Address, to: Address, amount: U256) -> Transfer {
        Transfer { asset: Asset::Eth, from, to, amount }
    }

    #[test]
    fn canonical_eth_payout_classifies() {
        // Figure 4: 27.1 ETH in, 5.418… to operator, 21.67… to affiliate.
        let contract = addr(1);
        let (victim, op, aff) = (addr(2), addr(3), addr(4));
        let value = U256::from_u128(27_100_000_000_000_000_000);
        let op_cut = value.mul_div(U256::from_u64(2000), U256::from_u64(10_000));
        let aff_cut = value.mul_div(U256::from_u64(8000), U256::from_u64(10_000));
        let tx = tx_with(
            vec![t(victim, contract, value), t(contract, op, op_cut), t(contract, aff, aff_cut)],
            contract,
        );
        let obs = classify(tx, &ClassifierConfig::default()).expect("classified");
        assert_eq!(obs.source, contract);
        assert_eq!(obs.contract, contract);
        assert_eq!(obs.operator, op);
        assert_eq!(obs.affiliate, aff);
        assert_eq!(obs.ratio_bps, 2000);
        assert_eq!(obs.asset, Asset::Eth);
    }

    #[test]
    fn erc20_sweep_classifies_with_victim_source() {
        let contract = addr(1);
        let (victim, op, aff) = (addr(2), addr(3), addr(4));
        let token = Asset::Erc20(addr(8));
        let mk = |to: Address, amount: u64| Transfer {
            asset: token,
            from: victim,
            to,
            amount: U256::from_u64(amount),
        };
        let tx = tx_with(vec![mk(op, 150_000), mk(aff, 850_000)], contract);
        let obs = classify(tx, &ClassifierConfig::default()).expect("classified");
        assert_eq!(obs.source, victim);
        assert_eq!(obs.ratio_bps, 1500);
        assert_eq!(obs.operator, op);
        assert_eq!(obs.asset, token);
    }

    #[test]
    fn all_nine_ratios_match() {
        let contract = addr(1);
        for bps in DEFAULT_RATIOS_BPS {
            let total = U256::from_u64(10_000_000);
            let small = total.mul_div(U256::from_u64(bps as u64), U256::from_u64(10_000));
            let large = total - small;
            let tx = tx_with(
                vec![t(contract, addr(3), small), t(contract, addr(4), large)],
                contract,
            );
            let obs = classify(tx, &ClassifierConfig::default())
                .unwrap_or_else(|| panic!("ratio {bps} unclassified"));
            assert_eq!(obs.ratio_bps, bps);
        }
    }

    #[test]
    fn fifty_fifty_split_rejected() {
        let contract = addr(1);
        let tx = tx_with(
            vec![t(contract, addr(3), eth(5)), t(contract, addr(4), eth(5))],
            contract,
        );
        assert_eq!(classify(tx, &ClassifierConfig::default()), None);
    }

    #[test]
    fn off_ratio_rejected_and_tolerance_configurable() {
        let contract = addr(1);
        // 22/78 split: not within 0.5% of 20/80, but within 15%.
        let tx = tx_with(
            vec![t(contract, addr(3), eth(22)), t(contract, addr(4), eth(78))],
            contract,
        );
        assert_eq!(classify(tx.clone(), &ClassifierConfig::default()), None);
        let loose = ClassifierConfig { tolerance: 0.15, ..Default::default() };
        assert!(classify(tx, &loose).is_some());
    }

    #[test]
    fn dust_within_tolerance_still_matches() {
        // Integer division dust: operator gets value*33/100 truncated.
        let contract = addr(1);
        let value = U256::from_u64(1_000_003);
        let op_cut = value.mul_div(U256::from_u64(3300), U256::from_u64(10_000));
        let aff_cut = value.mul_div(U256::from_u64(6700), U256::from_u64(10_000));
        let tx = tx_with(
            vec![t(contract, addr(3), op_cut), t(contract, addr(4), aff_cut)],
            contract,
        );
        let obs = classify(tx, &ClassifierConfig::default()).expect("classified");
        assert_eq!(obs.ratio_bps, 3300);
    }

    #[test]
    fn single_transfer_rejected() {
        let contract = addr(1);
        let tx = tx_with(vec![t(contract, addr(3), eth(1))], contract);
        assert_eq!(classify(tx, &ClassifierConfig::default()), None);
    }

    #[test]
    fn three_transfers_rejected_in_strict_mode() {
        let contract = addr(1);
        let transfers = vec![
            t(contract, addr(3), eth(20)),
            t(contract, addr(4), eth(80)),
            t(contract, addr(5), U256::from_u64(1)), // dust
        ];
        let tx = tx_with(transfers.clone(), contract);
        assert_eq!(classify(tx, &ClassifierConfig::default()), None);
        // Relaxed mode (A5) accepts the two largest.
        let relaxed = ClassifierConfig { strict_two_transfers: false, ..Default::default() };
        let obs = classify(tx_with(transfers, contract), &relaxed).expect("classified");
        assert_eq!(obs.ratio_bps, 2000);
    }

    #[test]
    fn different_sources_rejected() {
        // DEX-like: two transfers, different sources.
        let dex = addr(1);
        let tx = tx_with(vec![t(addr(2), dex, eth(20)), t(dex, addr(2), eth(80))], dex);
        assert_eq!(classify(tx, &ClassifierConfig::default()), None);
    }

    #[test]
    fn same_recipient_twice_rejected() {
        let contract = addr(1);
        let tx = tx_with(
            vec![t(contract, addr(3), eth(20)), t(contract, addr(3), eth(80))],
            contract,
        );
        assert_eq!(classify(tx, &ClassifierConfig::default()), None);
    }

    #[test]
    fn nft_transfers_ignored() {
        let contract = addr(1);
        let nft = |to: Address| Transfer {
            asset: Asset::Erc721 { token: addr(8), id: 1 },
            from: contract,
            to,
            amount: U256::ONE,
        };
        let tx = tx_with(vec![nft(addr(3)), nft(addr(4))], contract);
        assert_eq!(classify(tx, &ClassifierConfig::default()), None);
    }

    #[test]
    fn contract_creation_rejected() {
        let mut tx = tx_with(vec![], addr(1));
        tx.to = None;
        assert_eq!(classify(tx, &ClassifierConfig::default()), None);
    }

    #[test]
    fn mixed_assets_grouped_separately() {
        // One ETH + one token transfer from the same source: neither
        // group has two transfers.
        let contract = addr(1);
        let token_t = Transfer {
            asset: Asset::Erc20(addr(8)),
            from: contract,
            to: addr(4),
            amount: eth(8),
        };
        let tx = tx_with(vec![t(contract, addr(3), eth(2)), token_t], contract);
        assert_eq!(classify(tx, &ClassifierConfig::default()), None);
    }

    #[test]
    fn prefers_contract_source_group() {
        // Both the invoked contract and an unrelated account have
        // qualifying splits; the contract-sourced one wins.
        let contract = addr(1);
        let other = addr(7);
        let tx = tx_with(
            vec![
                t(other, addr(5), eth(20)),
                t(other, addr(6), eth(80)),
                t(contract, addr(3), eth(15)),
                t(contract, addr(4), eth(85)),
            ],
            contract,
        );
        let obs = classify(tx, &ClassifierConfig::default()).expect("classified");
        assert_eq!(obs.source, contract);
        assert_eq!(obs.ratio_bps, 1500);
    }

    #[test]
    fn zero_amount_transfers_ignored() {
        let contract = addr(1);
        let tx = tx_with(
            vec![
                t(contract, addr(3), U256::ZERO),
                t(contract, addr(4), eth(20)),
                t(contract, addr(5), eth(80)),
            ],
            contract,
        );
        // Zero transfer excluded → exactly two remain → classifies.
        let obs = classify(tx, &ClassifierConfig::default()).expect("classified");
        assert_eq!(obs.ratio_bps, 2000);
    }
}
