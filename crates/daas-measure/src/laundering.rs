//! Post-theft fund-flow analysis (§8.1): once reported, DaaS accounts
//! cannot cash out at centralised exchanges, so they launder through
//! mixing services and bridges. This module measures where operator and
//! affiliate profits actually go.

use std::collections::HashMap;

use daas_chain::{AssetRef, ContractKind};
use eth_types::{Address, U256};
use serde::{Deserialize, Serialize};

use crate::incidents::MeasureCtx;

/// Destination classes for DaaS outflows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SinkKind {
    /// A mixing/bridging service (Tornado-style).
    Mixer,
    /// A labeled exchange hot wallet.
    Exchange,
    /// Another DaaS account in the dataset (internal shuffling).
    InternalDaas,
    /// Anything else (unattributed EOAs and contracts).
    Other,
}

/// The §8.1 laundering report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LaunderingReport {
    /// Outflow wei per sink class, from operator accounts.
    pub operator_outflows: HashMap<SinkKind, U256>,
    /// Share (percent of wei) of operator outflows reaching mixers.
    pub operator_mixer_pct: f64,
    /// Share of operator outflows reaching labeled exchanges.
    pub operator_exchange_pct: f64,
    /// Distinct operator accounts that touched a mixer.
    pub operators_using_mixers: usize,
}

impl<'a> MeasureCtx<'a> {
    /// Classifies every ETH outflow from dataset operator accounts by
    /// destination. `exchange_labels` decides what counts as a CEX (the
    /// paper's point: *labeled* accounts cannot cash out there, hence
    /// the mixer share).
    pub fn laundering_report(
        &self,
        labels: &daas_chain::LabelStore,
    ) -> LaunderingReport {
        use SinkKind::{Exchange, InternalDaas, Mixer, Other};
        // In declaration order, so `kind as usize` indexes it.
        const KINDS: [SinkKind; 4] = [Mixer, Exchange, InternalDaas, Other];
        let store = self.chain.transactions();
        let mut outflows: [Option<U256>; 4] = [None; 4];
        let mut mixer_users = 0;
        let mut entries = 0u64;
        for &op in self.dataset.operators.iter() {
            // An operator the chain never interned has no history.
            let Some(op) = self.chain.addr_id(op) else { continue };
            let history = self.chain.txs_of_id(op);
            entries += history.len() as u64;
            let mut used_mixer = false;
            for &txid in history {
                let cols = store.view(txid).transfer_columns();
                for i in 0..cols.from.len() {
                    if cols.from[i] != op || cols.asset[i] != AssetRef::Eth || cols.to[i] == op {
                        continue;
                    }
                    let sink = self.classify_sink(store.resolve(cols.to[i]), labels);
                    used_mixer |= sink == Mixer;
                    let slot = &mut outflows[sink as usize];
                    *slot = Some(slot.unwrap_or(U256::ZERO).saturating_add(cols.amount[i]));
                }
            }
            mixer_users += usize::from(used_mixer);
        }
        daas_obs::add_l("measure.history_entries", "report", "laundering", entries);

        // Float addition is not associative, so the total is summed in
        // the fixed kind order.
        let wei = |kind: usize| outflows[kind].map_or(0.0, |v| v.to_f64_lossy());
        let total: f64 = (0..KINDS.len()).filter(|&k| outflows[k].is_some()).map(wei).sum();
        let pct = |kind: usize| if total <= 0.0 { 0.0 } else { 100.0 * wei(kind) / total };
        LaunderingReport {
            operator_mixer_pct: pct(Mixer as usize),
            operator_exchange_pct: pct(Exchange as usize),
            operators_using_mixers: mixer_users,
            operator_outflows: KINDS
                .iter()
                .zip(outflows)
                .filter_map(|(&kind, wei)| Some((kind, wei?)))
                .collect(),
        }
    }

    fn classify_sink(&self, to: Address, labels: &daas_chain::LabelStore) -> SinkKind {
        if self.dataset.contains(to) {
            return SinkKind::InternalDaas;
        }
        if let Some(daas_chain::AccountKind::Contract(kind)) = self.chain.account_kind(to) {
            if matches!(kind, ContractKind::Mixer) {
                return SinkKind::Mixer;
            }
        }
        let is_exchange = labels
            .labels_of(to)
            .iter()
            .any(|l| l.category == daas_chain::LabelCategory::Benign);
        if is_exchange {
            return SinkKind::Exchange;
        }
        SinkKind::Other
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daas_chain::{Chain, ContractKind, EntryStyle, LabelStore, ProfitSharingSpec};
    use daas_detector::{classify_tx, Dataset};
    use daas_pricing::Oracle;
    use eth_types::units::ether;

    #[test]
    fn outflows_classified_by_destination() {
        let mut chain = Chain::new();
        let mut labels = LabelStore::new();
        let op = chain.create_eoa_funded(b"l/op", ether(100)).unwrap();
        let aff = chain.create_eoa(b"l/aff").unwrap();
        let victim = chain.create_eoa_funded(b"l/v", ether(50)).unwrap();
        let deployer = chain.create_eoa_funded(b"l/d", ether(1)).unwrap();
        let mixer = chain.deploy_contract(deployer, ContractKind::Mixer).unwrap();
        let cex = chain.create_eoa(b"l/cex").unwrap();
        labels.add(daas_chain::Label {
            address: cex,
            source: daas_chain::LabelSource::Etherscan,
            category: daas_chain::LabelCategory::Benign,
            text: "Binance 14".into(),
        });
        let friend = chain.create_eoa(b"l/friend").unwrap();
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

        let mut dataset = Dataset::default();
        chain.advance(12);
        let tx = chain.claim_eth(victim, contract, ether(10), aff).unwrap();
        dataset.absorb(classify_tx(chain.tx(tx), &Default::default()).unwrap());

        // Operator outflows: 60 to mixer, 20 to CEX, 5 to a friend,
        // 10 to the affiliate (internal).
        chain.advance(12);
        chain.transfer_eth(op, mixer, ether(60)).unwrap();
        chain.transfer_eth(op, cex, ether(20)).unwrap();
        chain.transfer_eth(op, friend, ether(5)).unwrap();
        chain.transfer_eth(op, aff, ether(10)).unwrap();

        let oracle = Oracle::new();
        let ctx = MeasureCtx::new(&chain, &dataset, &oracle);
        let report = ctx.laundering_report(&labels);
        assert_eq!(report.operator_outflows[&SinkKind::Mixer], ether(60));
        assert_eq!(report.operator_outflows[&SinkKind::Exchange], ether(20));
        assert_eq!(report.operator_outflows[&SinkKind::Other], ether(5));
        assert_eq!(report.operator_outflows[&SinkKind::InternalDaas], ether(10));
        assert!((report.operator_mixer_pct - 60.0 / 95.0 * 100.0).abs() < 0.1);
        assert!((report.operator_exchange_pct - 20.0 / 95.0 * 100.0).abs() < 0.1);
        assert_eq!(report.operators_using_mixers, 1);
    }

    /// Summed in a hash map's (per-instance random) iteration order,
    /// the float total — and so both percentages — changed in the last
    /// digit between runs. Here the order matters: each small flow is
    /// half an ulp of the large one, so `big + s + s` rounds to `big`
    /// while `big + (s + s)` does not.
    #[test]
    fn percentages_are_bit_identical_across_runs() {
        let mut chain = Chain::new();
        let mut labels = LabelStore::new();
        let big = U256::from_u128(1 << 70);
        let small = U256::from_u128(1 << 17);
        let op = chain.create_eoa_funded(b"d/op", big.saturating_add(ether(10))).unwrap();
        let deployer = chain.create_eoa_funded(b"d/d", ether(1)).unwrap();
        let mixer = chain.deploy_contract(deployer, ContractKind::Mixer).unwrap();
        let cex = chain.create_eoa(b"d/cex").unwrap();
        labels.add(daas_chain::Label {
            address: cex,
            source: daas_chain::LabelSource::Etherscan,
            category: daas_chain::LabelCategory::Benign,
            text: "Binance 14".into(),
        });
        let friend = chain.create_eoa(b"d/friend").unwrap();
        chain.advance(12);
        chain.transfer_eth(op, mixer, big).unwrap();
        chain.transfer_eth(op, cex, small).unwrap();
        chain.transfer_eth(op, friend, small).unwrap();
        let mut dataset = Dataset::default();
        dataset.operators.insert(op);

        let oracle = Oracle::new();
        let ctx = MeasureCtx::new(&chain, &dataset, &oracle);
        let first = ctx.laundering_report(&labels);
        assert_eq!(first.operator_outflows.len(), 3);
        let bits = |r: &LaunderingReport| {
            (r.operator_mixer_pct.to_bits(), r.operator_exchange_pct.to_bits())
        };
        for _ in 0..32 {
            assert_eq!(bits(&ctx.laundering_report(&labels)), bits(&first));
        }
    }

    #[test]
    fn empty_dataset_reports_zero() {
        let chain = Chain::new();
        let labels = LabelStore::new();
        let dataset = Dataset::default();
        let oracle = Oracle::new();
        let ctx = MeasureCtx::new(&chain, &dataset, &oracle);
        let report = ctx.laundering_report(&labels);
        assert_eq!(report.operator_mixer_pct, 0.0);
        assert!(report.operator_outflows.is_empty());
    }
}
