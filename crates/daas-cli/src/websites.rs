//! The §8.2 website-detection pipeline over a generated world: CT
//! stream → keyword triage → crawl → fingerprint verdicts.

use ct_watch::{CtStream, DomainTriage};
use daas_world::{detection_start, World};
use webscan::{scan_domains, FingerprintDb, ScanReport};

/// Outcome of the full §8.2 pipeline.
pub struct WebsitePipelineResult {
    /// Per-domain verdicts.
    pub report: ScanReport,
    /// Certificates observed in the watch window.
    pub certs_watched: usize,
    /// Domains that survived keyword triage.
    pub triaged: usize,
    /// Fingerprints before expansion (Telegram toolkits).
    pub fingerprints_seed: usize,
    /// Fingerprints after folding in community-reported sites
    /// (paper: 867).
    pub fingerprints_total: usize,
    /// Ground truth: drainer sites deployed in the watch window (for
    /// recall accounting; the paper could not know this number).
    pub drainer_sites_in_window: usize,
}

/// Runs CT triage + crawling + fingerprint matching, watching from the
/// paper's detection start (2023-12-01) with the given triage threshold.
pub fn run_website_pipeline(world: &World, threshold: f64) -> WebsitePipelineResult {
    let sites = world.sites();

    // Fingerprint DB: Telegram seed toolkits + expansion from
    // community-reported sites.
    let (db, fingerprints_seed) = {
        let _s = daas_obs::span!("websites.fingerprints");
        let mut db = FingerprintDb::new();
        for fp in &sites.seed_fingerprints {
            db.add(fp.clone());
        }
        let fingerprints_seed = db.len();
        for &idx in &sites.reported {
            db.expand_from_reported(&sites.sites[idx].files);
        }
        (db, fingerprints_seed)
    };
    let fingerprints_total = db.len();

    // CT watch: skip everything issued before the watcher started.
    let watched: Vec<_> = {
        let _s = daas_obs::span!("websites.ct_watch");
        let mut stream = CtStream::new(sites.certs.clone());
        let _missed = stream.poll_until(detection_start().saturating_sub(1)).len();
        stream.poll_rest().to_vec()
    };
    let certs_watched = watched.len();

    // Keyword triage.
    let suspicious: Vec<&str> = {
        let _s = daas_obs::span!("websites.triage");
        let triage = DomainTriage::new(threshold);
        watched
            .iter()
            .filter(|c| triage.assess(&c.domain).is_some())
            .map(|c| c.domain.as_str())
            .collect()
    };
    let triaged = suspicious.len();

    // Crawl and verify.
    let report = {
        let _s = daas_obs::span!("websites.crawl");
        scan_domains(&world.crawler(), &db, suspicious)
    };

    let drainer_sites_in_window = sites
        .truth
        .iter()
        .zip(&sites.sites)
        .filter(|(t, s)| t.family.is_some() && s.deployed_at >= detection_start())
        .count();

    WebsitePipelineResult {
        report,
        certs_watched,
        triaged,
        fingerprints_seed,
        fingerprints_total,
        drainer_sites_in_window,
    }
}
