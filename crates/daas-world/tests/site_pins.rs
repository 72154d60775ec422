//! Byte-identity pins for the §8.2 website population. `World::sites`
//! generates it on first use from the master RNG stream as label
//! assignment left it; the constants below were captured when the
//! population was still generated inside `World::build`, so any drift in
//! the stream's hand-over, or in the generator, shows up as a mismatch.

use daas_world::{SitePopulation, World, WorldConfig};

/// FNV-1a over the population's `Debug` text (plain `Vec` fields, whose
/// order is the data) and its taken-down domains, sorted.
fn fingerprint(s: &SitePopulation) -> u64 {
    let mut down: Vec<&String> = s.down.iter().collect();
    down.sort();
    let text = format!(
        "{:?}{:?}{:?}{:?}{:?}{:?}",
        s.sites, s.truth, s.certs, s.seed_fingerprints, s.reported, down
    );
    let mut hash = 0xcbf29ce484222325u64;
    for byte in text.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// `WorldConfig::tiny(7)`: 738 sites, 1,075 certificates.
const TINY_PIN: u64 = 0x09d7c50fe44d1085;

/// `WorldConfig::paper_scale(42)`, the world `daas-lab --scale 1`
/// builds: 73,574 sites, 108,170 certificates.
const PAPER_PIN: u64 = 0x553c6ee151a4d426;

#[test]
fn tiny_site_population_matches_its_pin() {
    let world = World::build(&WorldConfig::tiny(7)).expect("world builds");
    let before_first_use = world.clone();
    assert_eq!(fingerprint(world.sites()), TINY_PIN, "tiny(7) site population drifted");
    let after_first_use = world.clone();
    assert_eq!(
        fingerprint(before_first_use.sites()),
        TINY_PIN,
        "a clone made before the first sites() call generated a different population"
    );
    assert_eq!(fingerprint(after_first_use.sites()), TINY_PIN);
}

#[test]
#[ignore = "paper scale: run in release via ci.sh under CI_FULL_SCALE"]
fn paper_scale_site_population_matches_its_pin() {
    let world = World::build(&WorldConfig::paper_scale(42)).expect("world builds");
    assert_eq!(fingerprint(world.sites()), PAPER_PIN, "paper-scale site population drifted");
}
