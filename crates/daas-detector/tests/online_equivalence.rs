//! The streaming detector must converge to exactly the batch snowball
//! result — regardless of how the chain is delivered (one poll, or
//! block-sized chunks).

use daas_detector::{build_dataset, DetectorEvent, OnlineDetector, SnowballConfig};
use daas_world::{World, WorldConfig};

fn assert_equivalent(batch: &daas_detector::Dataset, online: &daas_detector::Dataset) {
    assert_eq!(online.contracts, batch.contracts, "contract sets differ");
    assert_eq!(online.operators, batch.operators, "operator sets differ");
    assert_eq!(online.affiliates, batch.affiliates, "affiliate sets differ");
    assert_eq!(online.ps_txs, batch.ps_txs, "transaction sets differ");
}

#[test]
fn single_poll_matches_batch() {
    let world = World::build(&WorldConfig::tiny(31)).expect("world");
    let batch = build_dataset(&world.chain, &world.labels, &SnowballConfig::default());

    let mut online = OnlineDetector::new(SnowballConfig::default());
    let events = online.poll(&world.chain, &world.labels);
    assert_equivalent(&batch, online.dataset());
    assert!(!events.is_empty());
    assert_eq!(online.cursor() as usize, world.chain.transactions().len());
}

#[test]
fn chunked_polling_matches_batch() {
    let world = World::build(&WorldConfig::tiny(32)).expect("world");
    let batch = build_dataset(&world.chain, &world.labels, &SnowballConfig::default());

    let mut online = OnlineDetector::new(SnowballConfig::default());
    let total = world.chain.transactions().len() as u32;
    let mut all_events = Vec::new();
    // Deliver in uneven chunks, like blocks arriving.
    let mut at = 0;
    for step in [7u32, 1, 113, 64, 999, 3] {
        at = (at + step).min(total);
        all_events.extend(online.poll_until(&world.chain, &world.labels, at));
    }
    all_events.extend(online.poll(&world.chain, &world.labels));
    assert_equivalent(&batch, online.dataset());

    // Event stream is consistent with the final dataset.
    let admitted: std::collections::BTreeSet<_> = all_events
        .iter()
        .filter_map(|e| match e {
            DetectorEvent::ContractAdmitted { contract, .. } => Some(*contract),
            _ => None,
        })
        .collect();
    assert_eq!(admitted, online.dataset().contracts);
    let txs: std::collections::BTreeSet<_> = all_events
        .iter()
        .filter_map(|e| match e {
            DetectorEvent::PsTransaction { tx, .. } => Some(*tx),
            _ => None,
        })
        .collect();
    assert_eq!(txs, online.dataset().ps_txs);
}

/// Regression: a watermark past the end of the chain must clamp to the
/// chain length — the cursor never runs ahead of the transactions that
/// exist, and the result equals an unbounded poll.
#[test]
fn over_large_watermark_clamps_to_chain_length() {
    let world = World::build(&WorldConfig::tiny(36)).expect("world");
    let batch = build_dataset(&world.chain, &world.labels, &SnowballConfig::default());

    let mut online = OnlineDetector::new(SnowballConfig::default());
    let events = online.poll_until(&world.chain, &world.labels, u32::MAX);
    assert_equivalent(&batch, online.dataset());
    assert!(!events.is_empty());
    assert_eq!(
        online.cursor() as usize,
        world.chain.transactions().len(),
        "cursor must clamp to the chain length, not the requested watermark"
    );
    // A follow-up poll sees nothing new.
    assert!(online.poll(&world.chain, &world.labels).is_empty());
}

#[test]
fn events_fire_exactly_once() {
    let world = World::build(&WorldConfig::tiny(33)).expect("world");
    let mut online = OnlineDetector::new(SnowballConfig::default());
    let mut events = online.poll(&world.chain, &world.labels);
    // A second poll with nothing new yields nothing.
    assert!(online.poll(&world.chain, &world.labels).is_empty());

    events.retain(|e| matches!(e, DetectorEvent::ContractAdmitted { .. }));
    let mut contracts: Vec<_> = events
        .iter()
        .map(|e| match e {
            DetectorEvent::ContractAdmitted { contract, .. } => *contract,
            _ => unreachable!(),
        })
        .collect();
    let before = contracts.len();
    contracts.sort_unstable();
    contracts.dedup();
    assert_eq!(contracts.len(), before, "duplicate admission events");
}

#[test]
fn guardless_variants_also_match() {
    let world = World::build(&WorldConfig::tiny(34)).expect("world");
    let cfg = SnowballConfig { expansion_guard: false, ..Default::default() };
    let batch = build_dataset(&world.chain, &world.labels, &cfg);
    let mut online = OnlineDetector::new(cfg);
    online.poll(&world.chain, &world.labels);
    assert_equivalent(&batch, online.dataset());
}

#[test]
fn seed_admissions_labeled_as_such() {
    let world = World::build(&WorldConfig::tiny(35)).expect("world");
    let mut online = OnlineDetector::new(SnowballConfig::default());
    let events = online.poll(&world.chain, &world.labels);
    let seeds = events
        .iter()
        .filter(|e| {
            matches!(e, DetectorEvent::ContractAdmitted { via: daas_detector::Admission::SeedLabel, .. })
        })
        .count();
    let expansions = events
        .iter()
        .filter(|e| {
            matches!(e, DetectorEvent::ContractAdmitted { via: daas_detector::Admission::Expansion, .. })
        })
        .count();
    assert!(seeds > 0, "no seed admissions");
    assert!(expansions > 0, "no expansion admissions");
}

/// A hand-built chain for the expansion guard's "prior contact" across a
/// late join: `hidden`'s only transaction before the one that surfaces
/// it is its deployment by `late`, and `late` joins the dataset (as an
/// affiliate of the labelled contract) only *after* that deployment.
/// `unlinked` is surfaced by a transaction touching `late` too, but its
/// only earlier transaction touches no dataset account.
struct LateJoin {
    chain: daas_chain::Chain,
    labels: daas_chain::LabelStore,
    hidden: eth_types::Address,
    unlinked: eth_types::Address,
}

fn late_join() -> LateJoin {
    use daas_chain::{Chain, ContractKind, EntryStyle, LabelSource, LabelStore, ProfitSharingSpec};
    use eth_types::units::ether;

    let mut chain = Chain::new();
    let spec = |operator| {
        ContractKind::ProfitSharing(ProfitSharingSpec {
            operator,
            operator_bps: 2000,
            entry: EntryStyle::PayableFallback,
        })
    };
    let operator = chain.create_eoa_funded(b"late/op", ether(10)).unwrap();
    let late = chain.create_eoa_funded(b"late/late", ether(10)).unwrap();
    let stranger = chain.create_eoa_funded(b"late/stranger", ether(10)).unwrap();
    let labelled = chain.deploy_contract(operator, spec(operator)).unwrap();
    let hidden = chain.deploy_contract(late, spec(late)).unwrap();
    let unlinked = chain.deploy_contract(stranger, spec(stranger)).unwrap();
    let claim = |chain: &mut Chain, name: &str, contract, affiliate| {
        let victim = chain.create_eoa_funded(name.as_bytes(), ether(100)).unwrap();
        chain.advance(12);
        chain.claim_eth(victim, contract, ether(10), affiliate).unwrap()
    };
    // `late` joins here, after `hidden`'s deployment.
    let joins = claim(&mut chain, "late/v1", labelled, late);
    let aff = chain.create_eoa(b"late/aff").unwrap();
    let surfaces = claim(&mut chain, "late/v2", hidden, aff);
    claim(&mut chain, "late/v3", unlinked, late);

    let deployed = chain.txs_of(hidden)[0];
    assert_eq!(chain.txs_of(hidden), [deployed, surfaces], "one transaction before surfacing");
    assert!(deployed < joins, "the contact must predate the join");
    let mut labels = LabelStore::new();
    labels.add_phishing(labelled, LabelSource::Chainabuse, "reported");
    LateJoin { chain, labels, hidden, unlinked }
}

#[test]
fn guard_counts_contact_with_a_member_that_joined_later() {
    let LateJoin { chain, labels, hidden, unlinked } = late_join();
    let batch = build_dataset(&chain, &labels, &SnowballConfig::default());
    assert!(batch.contracts.contains(&hidden), "batch missed the late-linked contract");
    assert!(!batch.contracts.contains(&unlinked), "batch admitted a contract without a contact");

    let total = chain.transactions().len() as u32;
    for per_tx in [true, false] {
        let mut online = OnlineDetector::new(SnowballConfig::default());
        let events = if per_tx {
            (1..=total).flat_map(|at| online.poll_until(&chain, &labels, at)).collect()
        } else {
            online.poll(&chain, &labels)
        };
        assert_equivalent(&batch, online.dataset());
        assert!(
            events.contains(&DetectorEvent::ContractAdmitted {
                contract: hidden,
                via: daas_detector::Admission::Expansion,
            }),
            "the online detector missed the late-linked contract (per-tx polls: {per_tx})"
        );
    }
}
