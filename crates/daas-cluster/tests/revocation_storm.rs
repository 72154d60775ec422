//! Revocation storms: many phish-touch revocations landing in a single
//! window and across consecutive windows.
//!
//! These pin the *scoped* rebuild semantics: `stats().rebuilds` counts
//! one re-partition per affected component (same-component revocations
//! coalesce), untouched components keep their cached family assemblies
//! through the storm, and the clustering stays byte-identical to the
//! batch prefix oracle at every boundary.

use daas_chain::{
    Chain, ContractKind, EntryStyle, LabelSource, LabelStore, ProfitSharingSpec, TxId,
};
use daas_cluster::{cluster_prefix, Clustering, OnlineClusterer};
use daas_detector::{Admission, ClassifierConfig, Dataset, DetectorEvent};
use eth_types::units::ether;
use eth_types::Address;

/// `k` operators, each with its own contract / affiliate / claim, plus
/// the synthesized detector event feed for the observations.
fn storm_world(k: usize) -> (Chain, LabelStore, Dataset, Vec<Address>, Vec<DetectorEvent>) {
    let mut chain = Chain::new();
    let labels = LabelStore::new();
    let mut dataset = Dataset::default();
    let mut ops = Vec::new();
    for i in 0..k {
        let op = chain.create_eoa_funded(format!("storm/op{i}").as_bytes(), ether(10)).unwrap();
        ops.push(op);
    }
    let mut events = Vec::new();
    for (i, &op) in ops.iter().enumerate() {
        let aff = chain.create_eoa(format!("storm/aff{i}").as_bytes()).unwrap();
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
        let victim =
            chain.create_eoa_funded(format!("storm/v{i}").as_bytes(), ether(50)).unwrap();
        chain.advance(12);
        let tx = chain.claim_eth(victim, contract, ether(10), aff).unwrap();
        let obs = daas_detector::classify_tx(chain.tx(tx), &Default::default()).unwrap();
        dataset.absorb(obs);
        dataset.operators.insert(op);
        events.push(DetectorEvent::ContractAdmitted { contract, via: Admission::SeedLabel });
        events.push(DetectorEvent::PsTransaction { tx, contract });
        events.push(DetectorEvent::OperatorObserved(op));
        events.push(DetectorEvent::AffiliateObserved(aff));
    }
    (chain, labels, dataset, ops, events)
}

/// Links two operators through a fresh labeled phishing EOA (the §7.1
/// step-1 phish-touch rule) and returns the shared account.
fn link_via_phish(
    chain: &mut Chain,
    labels: &mut LabelStore,
    a: Address,
    b: Address,
    seed: &str,
) -> Address {
    let phish = chain.create_eoa(seed.as_bytes()).unwrap();
    labels.add_phishing(phish, LabelSource::Etherscan, &format!("Fake_Phishing-{seed}"));
    chain.advance(12);
    chain.transfer_eth(a, phish, ether(1)).unwrap();
    chain.transfer_eth(b, phish, ether(1)).unwrap();
    phish
}

fn assert_oracle_eq(
    live: &Clustering,
    chain: &Chain,
    labels: &LabelStore,
    dataset: &Dataset,
    at: TxId,
) {
    let oracle = cluster_prefix(chain, labels, dataset, at);
    assert_eq!(
        serde_json::to_string(live).unwrap(),
        serde_json::to_string(&oracle).unwrap(),
        "clustering diverged from the batch prefix oracle at tx {at}"
    );
}

/// Three chained phish accounts revoked in ONE window: the revocations
/// coalesce into a single scoped rebuild of the one affected component,
/// and the component held together by a direct edge keeps its cached
/// family.
#[test]
fn storm_in_one_window_coalesces_to_one_scoped_rebuild() {
    let (mut chain, mut labels, mut dataset, ops, events) = storm_world(6);
    // Component X: ops 0..=3 merged purely by a phish chain.
    let p0 = link_via_phish(&mut chain, &mut labels, ops[0], ops[1], "storm/p0");
    let p1 = link_via_phish(&mut chain, &mut labels, ops[1], ops[2], "storm/p1");
    let p2 = link_via_phish(&mut chain, &mut labels, ops[2], ops[3], "storm/p2");
    // Component Y: ops 4 and 5 merged by a direct transfer.
    chain.advance(12);
    chain.transfer_eth(ops[4], ops[5], ether(1)).unwrap();

    let mut online = OnlineClusterer::new(ClassifierConfig::default());
    let wm = chain.transactions().len() as TxId;
    online.ingest(&chain, &labels, &dataset, &events, wm);
    let live = online.clustering(&labels);
    assert_eq!(live.families.len(), 2, "X (0-3) and Y (4-5)");
    assert_oracle_eq(&live, &chain, &labels, &dataset, wm);
    assert_eq!(online.stats().rebuilds, 0);

    // The storm: every chained account joins the dataset in one poll.
    for p in [p0, p1, p2] {
        dataset.affiliates.insert(p);
    }
    let storm: Vec<DetectorEvent> =
        [p0, p1, p2].into_iter().map(DetectorEvent::AffiliateObserved).collect();
    online.ingest(&chain, &labels, &dataset, &storm, wm);
    assert_eq!(
        online.stats().rebuilds,
        1,
        "three same-component revocations coalesce into ONE scoped rebuild"
    );

    let reused_before = online.stats().families_reused;
    let live = online.clustering(&labels);
    assert_eq!(live.families.len(), 5, "0..=3 split to singletons, 4+5 stay merged");
    assert!(
        online.stats().families_reused >= reused_before + 1,
        "the untouched component's family survived the storm in cache"
    );
    assert_oracle_eq(&live, &chain, &labels, &dataset, wm);
}

/// Revocations landing in consecutive windows: each window rebuilds only
/// the component it hit, the earlier windows' split results stay cached,
/// and every boundary matches the oracle.
#[test]
fn storms_across_consecutive_windows_stay_scoped() {
    let (mut chain, mut labels, mut dataset, ops, events) = storm_world(4);
    let q0 = link_via_phish(&mut chain, &mut labels, ops[0], ops[1], "storm/q0");
    let q1 = link_via_phish(&mut chain, &mut labels, ops[2], ops[3], "storm/q1");

    let mut online = OnlineClusterer::new(ClassifierConfig::default());
    let wm = chain.transactions().len() as TxId;
    online.ingest(&chain, &labels, &dataset, &events, wm);
    let live = online.clustering(&labels);
    assert_eq!(live.families.len(), 2);
    assert_oracle_eq(&live, &chain, &labels, &dataset, wm);

    // Window 2: q0 joins the dataset — only {0,1} is rebuilt.
    dataset.affiliates.insert(q0);
    online.ingest(&chain, &labels, &dataset, &[DetectorEvent::AffiliateObserved(q0)], wm);
    assert_eq!(online.stats().rebuilds, 1);
    let live = online.clustering(&labels);
    assert_eq!(live.families.len(), 3);
    assert_oracle_eq(&live, &chain, &labels, &dataset, wm);

    // Window 3: q1 joins — only {2,3} is rebuilt; the singletons split
    // off in window 2 are served straight from the assembly cache.
    dataset.affiliates.insert(q1);
    let reused_before = online.stats().families_reused;
    online.ingest(&chain, &labels, &dataset, &[DetectorEvent::AffiliateObserved(q1)], wm);
    assert_eq!(online.stats().rebuilds, 2);
    let live = online.clustering(&labels);
    assert_eq!(live.families.len(), 4, "both chains dissolved to singletons");
    assert!(
        online.stats().families_reused >= reused_before + 2,
        "window 2's split families were not re-assembled by window 3's storm"
    );
    assert_oracle_eq(&live, &chain, &labels, &dataset, wm);
}

/// A revocation whose component is *also* held together by direct edges:
/// the scoped rebuild finds one part, the partition stands, and the
/// family is still served from cache (nothing about it changed).
#[test]
fn redundant_revocation_keeps_partition_and_cache() {
    let (mut chain, mut labels, mut dataset, ops, events) = storm_world(2);
    let r0 = link_via_phish(&mut chain, &mut labels, ops[0], ops[1], "storm/r0");
    chain.advance(12);
    chain.transfer_eth(ops[0], ops[1], ether(1)).unwrap();

    let mut online = OnlineClusterer::new(ClassifierConfig::default());
    let wm = chain.transactions().len() as TxId;
    online.ingest(&chain, &labels, &dataset, &events, wm);
    let live = online.clustering(&labels);
    assert_eq!(live.families.len(), 1, "phish chain and direct edge agree");
    assert_oracle_eq(&live, &chain, &labels, &dataset, wm);

    dataset.affiliates.insert(r0);
    online.ingest(&chain, &labels, &dataset, &[DetectorEvent::AffiliateObserved(r0)], wm);
    assert_eq!(online.stats().rebuilds, 1, "the scoped rebuild still ran");

    let reused_before = online.stats().families_reused;
    let live = online.clustering(&labels);
    assert_eq!(live.families.len(), 1, "the direct edge keeps the component whole");
    assert_eq!(
        online.stats().families_reused,
        reused_before + 1,
        "an unchanged partition does not invalidate the assembly cache"
    );
    assert_oracle_eq(&live, &chain, &labels, &dataset, wm);
}
