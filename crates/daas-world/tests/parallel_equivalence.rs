//! The sequential-oracle contract for world generation: `build_with`
//! must produce a byte-identical world at every planner thread count.
//! Threads are a schedule, never data.

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
    let s = &world.sites;
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

fn build_fp(config: &WorldConfig, threads: usize) -> u64 {
    fingerprint(&World::build_with(config, threads).expect("world builds"))
}

#[test]
fn thread_counts_agree_on_tiny_worlds() {
    for seed in [7u64, 13, 31, 99] {
        let config = WorldConfig::tiny(seed);
        let oracle = build_fp(&config, 1);
        for threads in [2usize, 4, 8, 0] {
            assert_eq!(
                build_fp(&config, threads),
                oracle,
                "seed {seed}: world diverged from the sequential oracle at threads={threads}"
            );
        }
    }
}

#[test]
fn thread_counts_agree_on_small_world() {
    let config = WorldConfig::small(7);
    let oracle = build_fp(&config, 1);
    for threads in [2usize, 4, 0] {
        assert_eq!(build_fp(&config, threads), oracle, "diverged at threads={threads}");
    }
}

#[test]
fn default_build_is_the_parallel_path() {
    // `World::build` (threads = 0) must land on the oracle too — the
    // public single-argument API is not a separate code path.
    let config = WorldConfig::tiny(7);
    let plain = fingerprint(&World::build(&config).expect("world builds"));
    assert_eq!(plain, build_fp(&config, 1));
}

/// Full paper-scale equivalence — minutes of CPU, so opt-in:
/// `cargo test -p daas-world --test parallel_equivalence --release -- --ignored`.
#[test]
#[ignore = "paper-scale world; run via ci.sh or -- --ignored"]
fn thread_counts_agree_at_paper_scale() {
    let config = WorldConfig::paper_scale(42);
    let oracle = build_fp(&config, 1);
    assert_eq!(build_fp(&config, 0), oracle, "parallel planner diverged at paper scale");
}
