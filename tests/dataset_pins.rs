//! Byte-identity pins of the snowball's own output: the full serialized
//! `Dataset` — its role and transaction sets, the observations in absorb
//! order, the seed counts and the round count. The chain, clustering
//! and report pins in `columnar_equivalence` cannot see absorb order,
//! `seed` or `rounds`; these can. Any change to the §5.1 traversal
//! order shows up here as a hash mismatch.

use daas_lab::detector::{build_dataset, SnowballConfig};
use daas_lab::world::{World, WorldConfig};

/// FNV-1a over the artifact text — the fingerprint the columnar and
/// determinism suites use, so pins are comparable across test files.
fn fnv(text: &str) -> u64 {
    let mut hash = 0xcbf29ce484222325u64;
    for byte in text.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

fn dataset_hash(config: &WorldConfig) -> u64 {
    let world = World::build(config).expect("world");
    let dataset = build_dataset(&world.chain, &world.labels, &SnowballConfig::default());
    fnv(&serde_json::to_string(&dataset).expect("dataset serialises"))
}

/// Pinned dataset hash for `WorldConfig::tiny(7)`.
const TINY_PIN: u64 = 0x49426e9aa2d16521;

/// Pinned dataset hash at paper scale (seed 42, scale 1.0).
const PAPER_PIN: u64 = 0x57e4e23f6ffc12d7;

#[test]
fn tiny_world_dataset_matches_pin() {
    let got = dataset_hash(&WorldConfig::tiny(7));
    println!("tiny dataset pin: {got:#018x}");
    assert_eq!(got, TINY_PIN, "tiny-world dataset bytes drifted");
}

#[test]
#[ignore = "paper scale: minutes in debug — ci.sh runs it in release under CI_FULL_SCALE"]
fn paper_scale_dataset_matches_pin() {
    let got = dataset_hash(&WorldConfig::paper_scale(42));
    println!("paper dataset pin: {got:#018x}");
    assert_eq!(got, PAPER_PIN, "paper-scale dataset bytes drifted");
}
