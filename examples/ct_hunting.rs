//! Certificate-transparency hunting (§8.2): watch the CT stream, triage
//! suspicious domains with the 63-keyword list plus Levenshtein fuzz,
//! crawl the survivors and match drainer-toolkit fingerprints.
//!
//! ```sh
//! cargo run --release --example ct_hunting
//! ```

use daas_lab::ct_watch::{CtStream, DomainTriage, MatchKind};
use daas_lab::webscan::{scan_domains, FingerprintDb, Verdict};
use daas_lab::world::{detection_start, World, WorldConfig};

fn main() {
    let world = World::build(&WorldConfig::small(42)).expect("world");
    let sites = world.sites();

    // The fingerprint database starts from toolkits acquired in Telegram
    // groups and grows by folding in files from community-reported sites.
    let mut db = FingerprintDb::new();
    for fp in &sites.seed_fingerprints {
        db.add(fp.clone());
    }
    let seeds = db.len();
    for &idx in &sites.reported {
        db.expand_from_reported(&sites.sites[idx].files);
    }
    println!("fingerprints: {seeds} from Telegram toolkits, {} after expansion", db.len());

    // Tail the CT log from the paper's watch start (2023-12-01).
    let mut stream = CtStream::new(sites.certs.clone());
    stream.poll_until(detection_start() - 1); // before the watcher existed
    let watched = stream.poll_rest().to_vec();
    println!("certificates watched: {}", watched.len());

    // Keyword triage at the paper's 0.8 similarity threshold.
    let triage = DomainTriage::new(0.8);
    let mut exact = 0;
    let mut fuzzy = 0;
    let suspicious: Vec<&str> = watched
        .iter()
        .filter_map(|cert| {
            let hit = triage.assess(&cert.domain)?;
            match hit.kind {
                MatchKind::Exact => exact += 1,
                MatchKind::Fuzzy(_) => fuzzy += 1,
            }
            Some(cert.domain.as_str())
        })
        .collect();
    println!("triaged {} suspicious domains ({exact} exact keyword, {fuzzy} fuzzy)", suspicious.len());

    // Crawl and verify.
    let crawler = world.crawler();
    let report = scan_domains(&crawler, &db, suspicious);
    println!(
        "verdicts: {} phishing, {} clean, {} unreachable",
        report.confirmed, report.clean, report.unreachable
    );

    // Family attribution from fingerprints, Table 4 from the TLDs.
    println!("\nsites per family:");
    for (family, count) in report.by_family() {
        println!("  {family:<18} {count}");
    }
    println!("\ntop TLDs among confirmed phishing domains:");
    for (tld, share) in report.tld_table().top(10) {
        println!("  .{tld:<9} {share:>5.1}%");
    }

    // A couple of concrete verdicts, for flavour.
    println!("\nsample verdicts:");
    for outcome in report.outcomes.iter().take(5) {
        let verdict = match &outcome.verdict {
            Verdict::Phishing { family } => format!("PHISHING ({family})"),
            Verdict::Clean => "clean".to_owned(),
            Verdict::Unreachable => "unreachable".to_owned(),
        };
        println!("  {:<40} {verdict}", outcome.domain);
    }
}
