//! Byte-identity pins across the interned-address columnar chain
//! refactor: the serialized chain, clustering, and §6 measurement
//! artifacts must hash to exactly what the pre-refactor (per-tx `Vec`)
//! storage produced. The constants below were captured at the commit
//! immediately before the columnar storage landed; any drift in the
//! serialization contract shows up here as a hash mismatch.

use daas_lab::cluster::cluster;
use daas_lab::detector::{build_dataset, SnowballConfig};
use daas_lab::measure::{MeasureConfig, MeasureCtx};
use daas_lab::world::{collection_end, World, WorldConfig};

/// FNV-1a over the artifact text — same fingerprint the determinism
/// suite uses, so pins are comparable across test files.
fn fnv(text: &str) -> u64 {
    let mut hash = 0xcbf29ce484222325u64;
    for byte in text.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// `[chain, clustering, measure-bundle]` artifact hashes for a config.
fn artifact_hashes(config: &WorldConfig) -> [u64; 3] {
    let world = World::build(config).expect("world");
    let chain = fnv(&serde_json::to_string(&world.chain).expect("chain serialises"));
    let dataset = build_dataset(&world.chain, &world.labels, &SnowballConfig::default());
    let clustering = cluster(&world.chain, &world.labels, &dataset);
    let clusters = fnv(&serde_json::to_string(&clustering).expect("clustering serialises"));
    let ctx = MeasureCtx::new(&world.chain, &dataset, &world.oracle);
    let reports =
        ctx.reports(&world.labels, 30 * 86_400, collection_end(), &MeasureConfig::sequential());
    let measure = fnv(&serde_json::to_string(&reports).expect("reports serialise"));
    [chain, clusters, measure]
}

/// Pinned pre-refactor hashes for `WorldConfig::tiny(7)`.
const TINY_PINS: [u64; 3] = [0xd7bfdbce9108f842, 0x7df13984630d694a, 0xef053cf1213057be];

/// Pinned pre-refactor hashes for paper scale (seed 42, scale 1.0 —
/// the world `daas-lab --scale 1` builds).
const PAPER_PINS: [u64; 3] = [0xa3fcafc0bf046eef, 0x8f8ec2ca1b481890, 0x564a09923448a033];

#[test]
fn tiny_world_artifacts_match_pre_refactor_pins() {
    let got = artifact_hashes(&WorldConfig::tiny(7));
    println!("tiny pins: {got:#018x?}");
    assert_eq!(got, TINY_PINS, "tiny-world artifacts drifted from the pre-refactor bytes");
}

#[test]
#[ignore = "paper scale: minutes in debug — ci.sh runs it in release under CI_FULL_SCALE"]
fn paper_scale_artifacts_match_pre_refactor_pins() {
    let got = artifact_hashes(&WorldConfig::paper_scale(42));
    println!("paper pins: {got:#018x?}");
    assert_eq!(got, PAPER_PINS, "paper-scale artifacts drifted from the pre-refactor bytes");
}
