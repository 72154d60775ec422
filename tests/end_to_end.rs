//! Workspace-level end-to-end test: everything a downstream user would
//! do through the `daas-lab` facade, from world generation to the final
//! reports, in one pass.

use std::sync::OnceLock;

use daas_lab::cluster::{cluster, Clustering};
use daas_lab::ct_watch::{CtStream, DomainTriage};
use daas_lab::detector::{build_dataset, evaluate, Dataset, SnowballConfig};
use daas_lab::measure::MeasureCtx;
use daas_lab::reporting::{coverage, report_all, Blocklist};
use daas_lab::webscan::{scan_domains, FingerprintDb};
use daas_lab::world::{collection_end, detection_start, World, WorldConfig};

struct Fixture {
    world: World,
    dataset: Dataset,
    clustering: Clustering,
}

fn fixture() -> &'static Fixture {
    static F: OnceLock<Fixture> = OnceLock::new();
    F.get_or_init(|| {
        let world = World::build(&WorldConfig::small(2025)).expect("world");
        let dataset = build_dataset(&world.chain, &world.labels, &SnowballConfig::default());
        let clustering = cluster(&world.chain, &world.labels, &dataset);
        Fixture { world, dataset, clustering }
    })
}

#[test]
fn snowball_reproduces_table1_shape() {
    let f = fixture();
    // The expanded dataset is a strict superset of the seed and grows
    // severalfold (paper: 391 → 1,910 contracts).
    assert!(f.dataset.seed.contracts * 2 < f.dataset.counts().contracts);
    // Everything is correct (paper: no false positives in validation).
    let eval = evaluate(
        &f.dataset,
        &f.world.truth.all_contracts(),
        &f.world.truth.all_operators(),
        &f.world.truth.all_affiliates(),
        &f.world.truth.ps_tx_ids(),
    );
    assert_eq!(eval.contracts.false_positives, 0);
    assert!(eval.contracts.recall() > 0.97);
    assert!(eval.transactions.recall() > 0.97);
}

#[test]
fn clustering_reproduces_table2_families() {
    let f = fixture();
    assert_eq!(f.clustering.families.len(), 9);
    for name in ["Angel Drainer", "Inferno Drainer", "Pink Drainer"] {
        assert!(f.clustering.by_name(name).is_some(), "{name} missing");
    }
}

#[test]
fn measurement_reproduces_section6() {
    let f = fixture();
    let ctx = MeasureCtx::new(&f.world.chain, &f.dataset, &f.world.oracle);
    let victims = ctx.victim_report();
    assert!((victims.below_1k_pct - 83.5).abs() < 6.0);
    let affiliates = ctx.affiliate_report();
    assert!((affiliates.above_1k_pct - 50.2).abs() < 12.0);
    let repeats = ctx.repeat_victim_report();
    assert!((repeats.simultaneous_pct - 78.1).abs() < 10.0);
}

#[test]
fn website_pipeline_detects_drainer_sites() {
    let f = fixture();
    let sites = f.world.sites();
    let mut db = FingerprintDb::new();
    for fp in &sites.seed_fingerprints {
        db.add(fp.clone());
    }
    for &idx in &sites.reported {
        db.expand_from_reported(&sites.sites[idx].files);
    }
    let mut stream = CtStream::new(sites.certs.clone());
    stream.poll_until(detection_start() - 1);
    let watched = stream.poll_rest().to_vec();
    let triage = DomainTriage::default();
    let suspicious: Vec<&str> = watched
        .iter()
        .filter(|c| triage.assess(&c.domain).is_some())
        .map(|c| c.domain.as_str())
        .collect();
    let report = scan_domains(&f.world.crawler(), &db, suspicious);

    assert!(report.confirmed > 0, "no sites detected");
    // No benign site is ever confirmed: fingerprints are exact.
    let confirmed: std::collections::HashSet<&str> =
        report.phishing_domains().into_iter().collect();
    for (site, truth) in sites.sites.iter().zip(&sites.truth) {
        if truth.family.is_none() {
            assert!(
                !confirmed.contains(site.domain.as_str()),
                "benign site {} confirmed as phishing",
                site.domain
            );
        }
    }
    // The TLD table is dominated by .com like Table 4.
    let tlds = report.tld_table();
    assert_eq!(tlds.rows[0].0, "com");
}

#[test]
fn reporting_flow_works() {
    let f = fixture();
    let mut labels = f.world.labels.clone();
    let before = coverage(&labels, &f.dataset);
    assert!(before.labeled_pct < 30.0, "pre-labeled {}%", before.labeled_pct);
    let newly = report_all(&mut labels, &f.dataset);
    assert!(newly > 0);
    // A blocklist from the midpoint forward prevents a meaningful share.
    let midpoint = daas_lab::world::collection_start()
        + (collection_end() - daas_lab::world::collection_start()) / 2;
    let blocklist = Blocklist::from_dataset(&f.dataset, midpoint);
    let (prevented, total_after) = blocklist.prevented(&f.world.chain, &f.dataset);
    assert_eq!(prevented, total_after, "all known-account txs post-cutoff are blockable");
}

#[test]
fn dataset_export_roundtrips_as_json() {
    // The paper releases its dataset; ours serialises losslessly.
    let f = fixture();
    let json = serde_json::to_string(&f.dataset).expect("serialise");
    let back: Dataset = serde_json::from_str(&json).expect("deserialise");
    assert_eq!(back.counts(), f.dataset.counts());
    assert_eq!(back.observations.len(), f.dataset.observations.len());
    assert_eq!(back.seed, f.dataset.seed);
}
