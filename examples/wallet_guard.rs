//! Wallet guard: the paper's §9 countermeasures in action against a
//! generated world — domain check, pre-signing simulation, and the
//! multi-account drain-intent test.
//!
//! ```sh
//! cargo run --release --example wallet_guard
//! ```

use daas_lab::detector::{build_dataset, SnowballConfig};
use daas_lab::types::units::ether;
use daas_lab::wallet_guard::{
    multi_account_test, DrainerBehavior, HonestCheckout, Holding, MultiAccountVerdict,
    SignRequest, SimulationVerdict, WalletGuard,
};
use daas_lab::webscan::FingerprintDb;
use daas_lab::world::{World, WorldConfig};

fn main() {
    let mut world = World::build(&WorldConfig::small(42)).expect("world");
    let dataset = build_dataset(&world.chain, &world.labels, &SnowballConfig::default());

    // Arm the guard with what the community knows: the reported dataset
    // and the toolkit fingerprint database.
    let sites = world.sites();
    let mut db = FingerprintDb::new();
    for fp in &sites.seed_fingerprints {
        db.add(fp.clone());
    }
    for &idx in &sites.reported {
        db.expand_from_reported(&sites.sites[idx].files);
    }
    let guard = WalletGuard::new()
        .with_blocklist(
            dataset
                .contracts
                .iter()
                .chain(dataset.operators.iter())
                .chain(dataset.affiliates.iter())
                .copied(),
        )
        .with_fingerprints(db);
    println!("guard armed: {} blocklisted accounts\n", guard.blocklist_len());

    // --- Defense 1: domain check at connect time. ---
    let crawler = world.crawler();
    let (phish_site, _) = sites
        .sites
        .iter()
        .zip(&sites.truth)
        .find(|(s, t)| t.family.is_some() && !sites.down.contains(&s.domain))
        .expect("a live drainer site");
    use daas_lab::webscan::Crawler;
    let fetched = crawler.fetch(&phish_site.domain);
    println!(
        "domain check on {:<40} -> {:?}",
        phish_site.domain,
        guard.check_domain(&phish_site.domain, fetched)
    );
    println!(
        "domain check on {:<40} -> {:?}\n",
        "rust-lang.org",
        guard.check_domain("rust-lang.org", None)
    );

    // --- Defense 2: simulate before signing. ---
    let user = world.chain.create_eoa_funded(b"example/guarded-user", ether(50)).unwrap();
    let contract = *dataset.contracts.iter().next().expect("a drainer contract");
    let affiliate = *dataset.affiliates.iter().next().expect("an affiliate");
    let phishing_request = SignRequest {
        to: contract,
        value: ether(10),
        erc20_approvals: vec![],
        nft_approvals: vec![],
        affiliate_hint: Some(affiliate),
    };
    match guard.simulate(&world.chain, user, &phishing_request) {
        SimulationVerdict::Blocked { account } => {
            println!("signing 10 ETH to {} -> BLOCKED (pays reported account {})", contract.short(), account.short())
        }
        other => println!("signing 10 ETH to drainer -> {other:?}"),
    }
    let friend = world.chain.create_eoa(b"example/friend").unwrap();
    let honest_request = SignRequest {
        to: friend,
        value: ether(1),
        erc20_approvals: vec![],
        nft_approvals: vec![],
        affiliate_hint: None,
    };
    println!(
        "signing 1 ETH to a friend          -> {:?}\n",
        guard.simulate(&world.chain, user, &honest_request)
    );

    // --- Defense 3: multi-account probing. ---
    let usdc = world.infra.erc20_tokens[0].0;
    let nft = world.infra.nft_collections[0];
    let probes = vec![
        (user, vec![Holding::eth(ether(5))]),
        (friend, vec![Holding::erc20(usdc, ether(3)), Holding::nft(nft, 999)]),
    ];
    let drainer = DrainerBehavior { contract, affiliate };
    let checkout = HonestCheckout { merchant: friend, price: ether(1), token: None };
    for (name, verdict) in [
        ("drainer site", multi_account_test(&drainer, &probes, 0.9)),
        ("honest checkout", multi_account_test(&checkout, &probes, 0.9)),
    ] {
        match verdict {
            MultiAccountVerdict::DrainIntent { coverage } => {
                println!("multi-account probe of {name:<16} -> DRAIN INTENT ({:.0}% of holdings targeted)", coverage * 100.0)
            }
            MultiAccountVerdict::Bounded { coverage } => {
                println!("multi-account probe of {name:<16} -> bounded ({:.0}% of holdings targeted)", coverage * 100.0)
            }
        }
    }
}
