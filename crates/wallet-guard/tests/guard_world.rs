//! Wallet-guard against a generated world: armed with the discovered
//! dataset and fingerprint DB, the guard must stop every drainer
//! interaction and pass benign ones.

use daas_detector::{build_dataset, SnowballConfig};
use daas_world::{World, WorldConfig};
use eth_types::units::ether;
use wallet_guard::{SignRequest, SimulationVerdict, WalletGuard};
use webscan::{Crawler, FingerprintDb};

#[test]
fn guard_blocks_every_discovered_contract() {
    let mut world = World::build(&WorldConfig::tiny(5)).expect("world");
    let dataset = build_dataset(&world.chain, &world.labels, &SnowballConfig::default());
    let guard = WalletGuard::new().with_blocklist(
        dataset
            .contracts
            .iter()
            .chain(dataset.operators.iter())
            .chain(dataset.affiliates.iter())
            .copied(),
    );
    let user = world.chain.create_eoa_funded(b"t/guarded", ether(1_000)).unwrap();

    for &contract in dataset.contracts.iter() {
        let request = SignRequest {
            to: contract,
            value: ether(1),
            erc20_approvals: vec![],
            nft_approvals: vec![],
            affiliate_hint: None,
        };
        assert!(
            matches!(guard.simulate(&world.chain, user, &request), SimulationVerdict::Blocked { .. }),
            "guard passed a drainer contract {contract}"
        );
    }
}

#[test]
fn shape_heuristic_catches_undiscovered_contracts() {
    // Even with an EMPTY blocklist, simulating a deposit into any
    // ground-truth drainer contract reveals the split.
    let mut world = World::build(&WorldConfig::tiny(5)).expect("world");
    let guard = WalletGuard::new();
    let user = world.chain.create_eoa_funded(b"t/unprotected", ether(1_000)).unwrap();
    let mut flagged = 0;
    let contracts = world.truth.all_contracts();
    for &contract in contracts.iter().take(25) {
        let request = SignRequest {
            to: contract,
            value: ether(1),
            erc20_approvals: vec![],
            nft_approvals: vec![],
            affiliate_hint: Some(user), // drainer calldata carries some affiliate
        };
        if matches!(
            guard.simulate(&world.chain, user, &request),
            SimulationVerdict::SuspiciousShape { .. }
        ) {
            flagged += 1;
        }
    }
    assert_eq!(flagged, 25.min(contracts.len()), "shape heuristic missed drainers");
}

#[test]
fn fingerprint_domain_check_over_world_sites() {
    let world = World::build(&WorldConfig::tiny(5)).expect("world");
    let sites = world.sites();
    let mut db = FingerprintDb::new();
    for fp in &sites.seed_fingerprints {
        db.add(fp.clone());
    }
    for &idx in &sites.reported {
        db.expand_from_reported(&sites.sites[idx].files);
    }
    let guard = WalletGuard::new().with_fingerprints(db);
    let crawler = world.crawler();

    let mut drainer_hits = 0;
    let mut drainer_total = 0;
    for (site, truth) in sites.sites.iter().zip(&sites.truth) {
        let fetched = crawler.fetch(&site.domain);
        let verdict = guard.check_domain(&site.domain, fetched);
        match truth.family {
            Some(_) => {
                drainer_total += 1;
                if matches!(verdict, wallet_guard::DomainVerdict::ToolkitDetected { .. }) {
                    drainer_hits += 1;
                }
            }
            None => {
                assert!(
                    matches!(verdict, wallet_guard::DomainVerdict::NoFindings),
                    "benign site {} flagged",
                    site.domain
                );
            }
        }
    }
    // Coverage is partial (taken-down sites, toolkit builds never seen
    // on a reported site). At 1% world scale each build appears on only
    // a handful of sites, so expansion coverage is sparser than the
    // ~94% it reaches at paper scale — still, the majority must hit.
    assert!(
        drainer_hits * 2 >= drainer_total,
        "fingerprint coverage too low: {drainer_hits}/{drainer_total}"
    );
}
