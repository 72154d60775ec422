//! End-to-end generator tests: build a small world and check the
//! observable surfaces and ground truth line up with the configuration.

use std::sync::OnceLock;

use daas_world::{IncidentKind, World, WorldConfig};
use eth_types::{keccak256, U256};

/// One shared small world: building it is the expensive part, and every
/// test only reads it.
fn small_world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| World::build(&WorldConfig::small(7)).expect("world builds"))
}

#[test]
fn builds_deterministically() {
    let a = World::build(&WorldConfig::tiny(3)).unwrap();
    let b = World::build(&WorldConfig::tiny(3)).unwrap();
    assert_eq!(a.chain.stats(), b.chain.stats());
    assert_eq!(a.truth.incidents.len(), b.truth.incidents.len());
    assert_eq!(a.sites().certs.len(), b.sites().certs.len());
    // Same addresses, same hashes.
    assert_eq!(
        a.chain.transactions().last().unwrap().hash(),
        b.chain.transactions().last().unwrap().hash()
    );
    // A different seed gives a different world.
    let c = World::build(&WorldConfig::tiny(4)).unwrap();
    assert_ne!(
        a.chain.transactions().last().unwrap().hash(),
        c.chain.transactions().last().unwrap().hash()
    );
}

/// The ledger stores no transaction hash: every transaction of a built
/// world reads back keccak256 of its documented preimage — id (4 bytes),
/// sender, target if any, value (32 bytes) and timestamp (8 bytes), all
/// big-endian — and the arena holds no hash it did not derive.
#[test]
fn every_tx_hash_is_derived_from_its_preimage() {
    let world = World::build(&WorldConfig::tiny(7)).unwrap();
    let store = world.chain.transactions();
    assert_eq!(store.hash_exceptions(), 0);
    let mut preimage = Vec::with_capacity(84);
    for tx in store {
        preimage.clear();
        preimage.extend_from_slice(&tx.id().to_be_bytes());
        preimage.extend_from_slice(tx.from().as_bytes());
        if let Some(to) = tx.to() {
            preimage.extend_from_slice(to.as_bytes());
        }
        preimage.extend_from_slice(&tx.value().to_be_bytes());
        preimage.extend_from_slice(&tx.timestamp().to_be_bytes());
        assert_eq!(tx.hash(), keccak256(&preimage), "tx {}", tx.id());
    }
}

#[test]
fn population_counts_match_scaled_config() {
    let cfg = WorldConfig::small(7);
    let w = small_world();
    assert_eq!(w.truth.families.len(), 9);
    for (fam, fc) in w.truth.families.iter().zip(&cfg.families) {
        assert_eq!(fam.operators.len(), cfg.scaled(fc.operators) as usize, "{}", fc.slug);
        assert_eq!(fam.contracts.len(), cfg.scaled(fc.contracts) as usize, "{}", fc.slug);
        assert_eq!(fam.affiliates.len(), cfg.scaled(fc.affiliates) as usize, "{}", fc.slug);
    }
    // Victims ≥ scaled count (floored at contracts).
    let victims = w.truth.all_victims().len();
    let expected: u32 = cfg.families.iter().map(|f| cfg.scaled(f.victims)).sum();
    assert!(victims as u32 >= expected, "victims {victims} < {expected}");
}

#[test]
fn every_contract_has_a_profit_sharing_tx() {
    let w = small_world();
    for fam in &w.truth.families {
        for c in &fam.contracts {
            let has_incident = w.truth.incidents.iter().any(|i| i.contract == c.address);
            assert!(has_incident, "contract {} has no incident", c.address);
        }
    }
}

#[test]
fn eth_claims_record_their_contracts_entry_selector() {
    // The chain hashes each entry selector once, at deploy; every ETH
    // claim must still record what the contract's entry style hashes to.
    let w = World::build(&WorldConfig::tiny(7)).expect("world builds");
    let (mut named, mut fallback) = (0, 0);
    for inc in w.truth.incidents.iter().filter(|i| i.kind == IncidentKind::Eth) {
        let spec = w.chain.profit_sharing_spec(inc.contract).expect("ps contract");
        let expect = spec.entry.selector();
        let tx = w.chain.tx(inc.ps_tx);
        assert_eq!(tx.to(), Some(inc.contract), "tx {} does not call its contract", inc.ps_tx);
        assert_eq!(tx.selector(), expect, "tx {} into {:?}", inc.ps_tx, spec.entry);
        if expect.is_some() {
            named += 1;
        } else {
            fallback += 1;
        }
    }
    assert!(named > 0 && fallback > 0, "{named} named and {fallback} fallback claims");
}

#[test]
fn incident_transactions_have_profit_share_shape() {
    let w = small_world();
    for inc in &w.truth.incidents {
        let tx = w.chain.tx(inc.ps_tx);
        let spec = w.chain.profit_sharing_spec(inc.contract).expect("ps contract");
        // The fund flow out of one source consists of exactly two
        // transfers: operator + affiliate.
        let source_counts: Vec<usize> = {
            use std::collections::HashMap;
            let mut m: HashMap<_, usize> = HashMap::new();
            for t in tx.transfers() {
                *m.entry(t.from).or_default() += 1;
            }
            m.values().copied().collect()
        };
        assert!(
            source_counts.contains(&2),
            "tx {} lacks a two-transfer source",
            inc.ps_tx
        );
        // Receivers include the operator and the affiliate.
        assert!(tx.transfers().any(|t| t.to == spec.operator));
        assert!(tx.transfers().any(|t| t.to == inc.affiliate));
    }
}

#[test]
fn family_profit_totals_near_targets() {
    let cfg = WorldConfig::small(7);
    let w = small_world();
    for (fi, fc) in cfg.families.iter().enumerate() {
        let total: f64 = w
            .truth
            .incidents
            .iter()
            .filter(|i| i.family == fi)
            .map(|i| i.loss_usd)
            .sum();
        let target = fc.profits_usd * cfg.scale;
        let ratio = total / target;
        assert!(
            (0.9..1.1).contains(&ratio),
            "{}: generated ${total:.0} vs target ${target:.0}",
            fc.slug
        );
    }
}

#[test]
fn repeat_victims_produce_extra_transactions() {
    let cfg = WorldConfig::small(7);
    let w = small_world();
    let victims = w.truth.all_victims().len();
    let incidents = w.truth.incidents.len();
    assert!(incidents > victims, "repeat incidents missing");
    // Ratio close to 87,077 / 76,582 ≈ 1.137.
    let ratio = incidents as f64 / victims as f64;
    assert!((1.05..1.25).contains(&ratio), "tx/victim ratio {ratio}");
    let _ = cfg;
    // Simultaneous extras share a timestamp with the victim's first tx.
    let sims = w.truth.incidents.iter().filter(|i| i.simultaneous_with_first).count();
    assert!(sims > 0);
    // Reused-approval extras exist and their drain tx carries no approval.
    let reused: Vec<_> = w.truth.incidents.iter().filter(|i| i.reused_approval).collect();
    assert!(!reused.is_empty());
    for inc in &reused {
        let tx = w.chain.tx(inc.ps_tx);
        assert!(tx.approval_count() == 0, "reuse drain should not approve");
    }
}

#[test]
fn label_coverage_near_config() {
    let cfg = WorldConfig::small(7);
    let w = small_world();
    let contracts = w.truth.all_contracts();
    let labeled = contracts.iter().filter(|c| w.labels.publicly_flagged(**c)).count();
    let frac = labeled as f64 / contracts.len() as f64;
    // Small-scale quantisation: six families scale down to one or two
    // contracts and the per-family minimum of one label overshoots the
    // global fraction, hence the generous band.
    assert!(
        (frac - cfg.label_contract_frac).abs() < 0.12,
        "labeled contract fraction {frac}"
    );
    // Every family has at least one labeled contract (expansion needs a
    // seed into each family).
    for fam in &w.truth.families {
        assert!(
            fam.contracts.iter().any(|c| w.labels.publicly_flagged(c.address)),
            "family {} has no labeled contract",
            fam.display_name()
        );
    }
}

#[test]
fn operator_balances_flow_to_mixer() {
    let w = small_world();
    assert!(w.chain.eth_balance(w.infra.mixer) > U256::ZERO, "mixer never funded");
}

#[test]
fn site_population_is_consistent() {
    let w = small_world();
    let sites = w.sites();
    assert_eq!(sites.sites.len(), sites.truth.len());
    assert!(!sites.certs.is_empty());
    // Certs sorted by issuance.
    assert!(sites.certs.windows(2).all(|p| p[0].issued_at <= p[1].issued_at));
    // Reported indices point at drainer sites.
    for &i in &sites.reported {
        assert!(sites.truth[i].family.is_some());
    }
    // Seed fingerprints exist for every family.
    assert!(sites.seed_fingerprints.len() >= 9);
    // Crawler honours takedowns.
    let crawler = w.crawler();
    if let Some(domain) = sites.down.iter().next() {
        use webscan::Crawler;
        assert!(crawler.fetch(domain).is_none());
    }
}

#[test]
fn chain_timestamps_monotonic() {
    let w = small_world();
    let txs = w.chain.transactions();
    assert!(txs.timestamps().windows(2).all(|p| p[0] <= p[1]));
    assert!(w.chain.blocks().windows(2).all(|p| p[0].number < p[1].number));
}

#[test]
fn affiliate_association_shape() {
    // Most affiliates earn from a single operator (§6.3: 60.4%).
    let w = small_world();
    use std::collections::{HashMap, HashSet};
    let mut ops_of_aff: HashMap<_, HashSet<_>> = HashMap::new();
    for inc in &w.truth.incidents {
        let spec = w.chain.profit_sharing_spec(inc.contract).unwrap();
        ops_of_aff.entry(inc.affiliate).or_default().insert(spec.operator);
    }
    let single = ops_of_aff.values().filter(|s| s.len() == 1).count();
    let frac = single as f64 / ops_of_aff.len() as f64;
    // At 5% scale most families collapse to one operator, so only the
    // lower bound is meaningful here; the paper-scale §6.3 statistic
    // (60.4%) is checked by the measurement harness.
    assert!(frac >= 0.45, "single-operator fraction {frac}");
}
