//! The history shard count is a memory layout, never data: resharding
//! the chain's history index must change neither the serialized chain
//! artifact nor a byte of the [`Clustering`].

use daas_chain::{
    Chain, ContractKind, EntryStyle, LabelSource, LabelStore, ProfitSharingSpec,
};
use daas_cluster::{cluster, Clustering};
use daas_detector::{classify_tx, Dataset};
use eth_types::units::ether;
use proptest::prelude::*;

fn json(c: &Clustering) -> String {
    serde_json::to_string(c).expect("clustering serialises")
}

/// A hand-built micro-world with controlled clustering topology:
/// `operators` drainer operators (one contract + affiliate + `victims`
/// claims each), a direct transfer linking every even-indexed operator
/// to its successor, and a labeled phishing EOA touched by every
/// third operator. Returns the chain, labels and the discovered-style
/// dataset.
fn micro_world(operators: usize, victims: usize) -> (Chain, LabelStore, Dataset) {
    let mut chain = Chain::new();
    let mut labels = LabelStore::new();
    let mut dataset = Dataset::default();
    let mut ops = Vec::new();
    for o in 0..operators {
        let op = chain.create_eoa_funded(format!("op{o}").as_bytes(), ether(10)).unwrap();
        ops.push(op);
        let affiliate = chain.create_eoa(format!("aff{o}").as_bytes()).unwrap();
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
        for v in 0..victims {
            let victim = chain
                .create_eoa_funded(format!("victim{o}-{v}").as_bytes(), ether(100))
                .unwrap();
            chain.advance(12);
            let tx = chain.claim_eth(victim, contract, ether(10), affiliate).unwrap();
            dataset.absorb(classify_tx(chain.tx(tx), &Default::default()).unwrap());
        }
    }
    // Direct operator↔operator links: 0→1, 2→3, …
    for pair in ops.chunks(2) {
        if let [a, b] = pair {
            chain.advance(12);
            chain.transfer_eth(*a, *b, ether(1)).unwrap();
        }
    }
    // A shared labeled phishing account touched by operators 0, 3, 6, …
    let phish = chain.create_eoa(b"old-phish").unwrap();
    labels.add_phishing(phish, LabelSource::Etherscan, "Fake_Phishing777");
    for op in ops.iter().step_by(3) {
        chain.advance(12);
        chain.transfer_eth(*op, phish, ether(1)).unwrap();
    }
    (chain, labels, dataset)
}

#[test]
fn shard_counts_change_nothing() {
    let (chain, labels, dataset) = micro_world(6, 2);
    let baseline_chain = serde_json::to_string(&chain).expect("chain serialises");
    let oracle = json(&cluster(&chain, &labels, &dataset));
    for shards in [1usize, 4, 16] {
        let mut resharded = chain.clone();
        resharded.set_history_shards(shards);
        assert_eq!(
            serde_json::to_string(&resharded).expect("chain serialises"),
            baseline_chain,
            "resharding to {shards} changed the serialized chain artifact"
        );
        let clustering = cluster(&resharded, &labels, &dataset);
        assert_eq!(json(&clustering), oracle, "shards={shards} diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For arbitrary micro-world shapes, any power-of-two shard count
    /// produces the default layout's exact clustering bytes.
    #[test]
    fn shard_count_never_changes_clustering(
        operators in 1usize..7,
        victims in 1usize..4,
        shard_pow in 0u32..6,
    ) {
        let (chain, labels, dataset) = micro_world(operators, victims);
        let oracle = json(&cluster(&chain, &labels, &dataset));
        let mut resharded = chain.clone();
        resharded.set_history_shards(1 << shard_pow);
        let clustering = cluster(&resharded, &labels, &dataset);
        prop_assert_eq!(json(&clustering), oracle);
    }
}
