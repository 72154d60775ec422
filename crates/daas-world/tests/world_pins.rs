//! World pins: one fingerprint over everything a built world exposes
//! (its chain, labels, ground truth, price oracle, site population and
//! infrastructure), pinned per config. These are the only checks over
//! the bytes of the whole world; any change to what a seed generates
//! shows up here as a mismatch. The values were measured when the world
//! build still planned on worker threads, and were equal at every
//! thread count.

use daas_world::{World, WorldConfig};

/// FNV-1a accumulator; chunks are hashed and dropped so the fingerprint
/// never holds more than one serialized piece at a time.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }
    fn eat(&mut self, text: &str) {
        for byte in text.bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
}

/// One number over everything the world exposes. Map-backed structures
/// go through serde (the shims serialize map entries sorted by key);
/// `Debug` is only used for plain-`Vec` fields, where iteration order is
/// the data.
fn fingerprint(world: &World) -> u64 {
    let mut sink = Fnv::new();
    sink.eat(&serde_json::to_string(&world.chain).expect("chain serialises"));
    sink.eat(&serde_json::to_string(&world.labels).expect("labels serialise"));
    sink.eat(&serde_json::to_string(&world.truth).expect("truth serialises"));
    sink.eat(&serde_json::to_string(&world.oracle).expect("oracle serialises"));
    let s = world.sites();
    sink.eat(&format!(
        "{:?}{:?}{:?}{:?}{:?}",
        s.sites, s.truth, s.certs, s.seed_fingerprints, s.reported
    ));
    let mut down: Vec<&String> = s.down.iter().collect();
    down.sort();
    sink.eat(&format!("{down:?}"));
    sink.eat(&format!("{:?}", world.infra));
    sink.0
}

fn build_fp(config: &WorldConfig) -> u64 {
    fingerprint(&World::build(config).expect("world builds"))
}

#[test]
fn tiny_worlds_match_their_pins() {
    for (seed, pin) in [
        (7u64, 0xfa72e8c3334126e4u64),
        (13, 0x572d13f69c4e95ae),
        (31, 0x57287500960d3c0a),
        (99, 0x2333973884703b24),
    ] {
        assert_eq!(build_fp(&WorldConfig::tiny(seed)), pin, "tiny({seed}) drifted from its pin");
    }
}

#[test]
fn small_world_matches_its_pin() {
    assert_eq!(
        build_fp(&WorldConfig::small(7)),
        0xe91ae74863dd72f0,
        "small(7) drifted from its pin"
    );
}

/// The paper-scale pin, seconds in release:
/// `cargo test -p daas-world --test world_pins --release -- --ignored`.
#[test]
#[ignore = "paper-scale world; run via ci.sh or -- --ignored"]
fn paper_scale_world_matches_its_pin() {
    assert_eq!(
        build_fp(&WorldConfig::paper_scale(42)),
        0xf992b19f681fc436,
        "paper_scale(42) drifted from its pin"
    );
}
