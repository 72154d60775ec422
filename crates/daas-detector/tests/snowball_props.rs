//! Property tests for snowball expansion: it reaches every family that
//! shares an operator with the labeled seed, and the order the
//! classification cache was warmed in cannot change the dataset — down
//! to the serialized bytes and the absorb (observation insertion)
//! order.

use daas_chain::{
    Chain, ContractKind, EntryStyle, LabelSource, LabelStore, ProfitSharingSpec, TxId,
};
use daas_detector::{
    build_dataset, build_dataset_with_cache, ClassificationCache, Dataset, SnowballConfig,
    DEFAULT_RATIOS_BPS,
};
use eth_types::units::ether;
use proptest::prelude::*;

/// A randomly shaped multi-family world: one operator shared by every
/// family (expansion must cross families), per-family affiliate and
/// victims, a table ratio chosen by the strategy.
fn arb_world(families: usize, victims: usize, ratio_idx: usize, amount: u64) -> (Chain, LabelStore) {
    let mut chain = Chain::new();
    let mut labels = LabelStore::new();
    let operator = chain.create_eoa_funded(b"op", ether(10)).unwrap();
    let spec = ProfitSharingSpec {
        operator,
        operator_bps: DEFAULT_RATIOS_BPS[ratio_idx],
        entry: EntryStyle::PayableFallback,
    };
    let mut first = None;
    for f in 0..families {
        let contract =
            chain.deploy_contract(operator, ContractKind::ProfitSharing(spec.clone())).unwrap();
        first.get_or_insert(contract);
        let affiliate = chain.create_eoa(format!("aff{f}").as_bytes()).unwrap();
        for v in 0..victims {
            let victim = chain
                .create_eoa_funded(format!("victim{f}-{v}").as_bytes(), ether(amount + 1))
                .unwrap();
            chain.advance(12);
            chain.claim_eth(victim, contract, ether(amount), affiliate).unwrap();
        }
    }
    labels.add_phishing(first.unwrap(), LabelSource::Chainabuse, "reported");
    (chain, labels)
}

fn json(ds: &Dataset) -> String {
    serde_json::to_string(ds).expect("dataset serialises")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Expansion hops from the one labeled contract to every family
    /// sharing its operator, for arbitrary world shapes.
    #[test]
    fn expansion_reaches_every_family(
        families in 1usize..4,
        victims in 1usize..4,
        ratio_idx in 0usize..DEFAULT_RATIOS_BPS.len(),
        amount in 1u64..40,
    ) {
        let (chain, labels) = arb_world(families, victims, ratio_idx, amount);
        let ds = build_dataset(&chain, &labels, &SnowballConfig::default());
        prop_assert_eq!(ds.counts().contracts, families);
    }

    /// The order the cache was warmed in is invisible: pre-classifying
    /// every transaction in *reverse* chain order, then replaying,
    /// matches the untouched oracle byte for byte.
    #[test]
    fn cache_warm_order_is_irrelevant(
        families in 1usize..4,
        victims in 1usize..3,
        ratio_idx in 0usize..DEFAULT_RATIOS_BPS.len(),
    ) {
        let (chain, labels) = arb_world(families, victims, ratio_idx, 10);
        let cfg = SnowballConfig::default();
        let oracle = build_dataset(&chain, &labels, &cfg);

        let cache = ClassificationCache::new();
        let total = chain.transactions().len() as TxId;
        for txid in (0..total).rev() {
            cache.classify(&chain, txid, &cfg.classifier);
        }
        prop_assert_eq!(cache.len(), total as usize);
        let replay = build_dataset_with_cache(&chain, &labels, &cfg, &cache);
        prop_assert_eq!(json(&oracle), json(&replay));
        // A fully warmed cache gains nothing from the replay.
        prop_assert_eq!(cache.len(), total as usize);
    }
}
