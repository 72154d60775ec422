//! Byte-identity pins of the snowball's own output: the full serialized
//! `Dataset` — its role and transaction sets, the observations in absorb
//! order, the seed counts and the round count. The chain, clustering
//! and report pins in `columnar_equivalence` cannot see absorb order,
//! `seed` or `rounds`; these can. Any change to the §5.1 traversal
//! order shows up here as a hash mismatch.

use daas_lab::detector::{build_dataset, OnlineDetector, SnowballConfig};
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

/// FNV-1a pins of one online detector run: its full event stream
/// (`Debug` of each event, one line each, in emission order) and its
/// final `Dataset` JSON. `online_equivalence` compares only the final
/// role and transaction sets; these also see event order and the
/// observations' absorb order.
fn online_hashes(world: &World, step: u32) -> (u64, u64) {
    let mut detector = OnlineDetector::new(SnowballConfig::default());
    let total = world.chain.transactions().len() as u32;
    let mut stream = String::new();
    let mut at = 0;
    while at < total {
        at = at.saturating_add(step).min(total);
        for event in detector.poll_until(&world.chain, &world.labels, at) {
            stream.push_str(&format!("{event:?}\n"));
        }
    }
    let dataset = serde_json::to_string(detector.dataset()).expect("dataset serialises");
    (fnv(&stream), fnv(&dataset))
}

/// Asserts the event-stream and dataset pins of `config` for each poll
/// step.
fn assert_online_pins(config: &WorldConfig, steps: &[u32], pins: (u64, u64)) {
    let world = World::build(config).expect("world");
    let got: Vec<(u32, (u64, u64))> =
        steps.iter().map(|&step| (step, online_hashes(&world, step))).collect();
    let seed = config.seed;
    for &(step, (events, dataset)) in &got {
        println!("seed {seed} step {step}: events {events:#018x}, dataset {dataset:#018x}");
    }
    for (step, (events, dataset)) in got {
        assert_eq!(events, pins.0, "event stream drifted (seed {seed}, step {step})");
        assert_eq!(dataset, pins.1, "online dataset bytes drifted (seed {seed}, step {step})");
    }
}

/// Poll sizes in transactions: one at a time, an uneven 97, and the
/// whole chain in one poll. The stream does not depend on the poll size.
const STEPS: [u32; 3] = [1, 97, u32::MAX];

/// Pinned (event stream, dataset) hashes of the online detector over
/// `WorldConfig::tiny(32)`.
const TINY_ONLINE_PINS: (u64, u64) = (0xc5fcdb3d69128b87, 0xe78214ac4ba10c60);

/// Pinned (event stream, dataset) hashes over `WorldConfig::micro(5)`.
const MICRO_ONLINE_PINS: (u64, u64) = (0xde7d9454dad7c844, 0x246a86518a2cae1a);

/// Pinned (event stream, dataset) hashes over
/// `WorldConfig::paper_scale(7)`.
const PAPER_ONLINE_PINS: (u64, u64) = (0x124000f332f436b2, 0x825a114b08f47e17);

#[test]
fn tiny_world_online_events_match_pins() {
    assert_online_pins(&WorldConfig::tiny(32), &STEPS, TINY_ONLINE_PINS);
}

#[test]
fn micro_world_online_events_match_pins() {
    assert_online_pins(&WorldConfig::micro(5), &STEPS, MICRO_ONLINE_PINS);
}

#[test]
#[ignore = "paper scale: minutes in debug — ci.sh runs it in release under CI_FULL_SCALE"]
fn paper_scale_online_events_match_pins() {
    assert_online_pins(&WorldConfig::paper_scale(7), &STEPS, PAPER_ONLINE_PINS);
}
