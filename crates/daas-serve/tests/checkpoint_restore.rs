//! Kill/restore convergence: an engine checkpointed at an arbitrary
//! window boundary, serialized to JSON, restored in a fresh process
//! image (new chain arena, new interner) and run to the end must
//! produce the final dataset, clustering and §6 reports byte-for-byte
//! identical to an uninterrupted run — and to the batch pipeline, which
//! the uninterrupted live run is already gated against elsewhere.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::thread;

use daas_detector::SnowballConfig;
use daas_measure::MeasureConfig;
use daas_serve::{Engine, EngineCheckpoint};
use daas_world::WorldConfig;
use proptest::prelude::*;

fn to_json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("serialize")
}

/// Finishes the stream and renders the comparable artifact triple.
fn final_artifact(engine: &mut Engine) -> String {
    engine.finish_stream();
    let dataset = engine.dataset().clone();
    let clustering = engine.clustering();
    let reports = engine.reports(&MeasureConfig::sequential());
    format!("{}\n{}\n{}", to_json(&dataset), to_json(&clustering), to_json(&reports))
}

/// Runs `config` straight through, then again with a kill at window
/// boundary `kill_after`, a JSON checkpoint round-trip and a restore;
/// asserts byte-identical final artifacts.
fn assert_restart_converges(config: &WorldConfig, window: u64, kill_after: usize) {
    assert_restart_converges_from(config, window, kill_after, str::to_owned);
}

/// [`assert_restart_converges`], restoring from `stored(json)` — the
/// checkpoint as some other build may have written it.
fn assert_restart_converges_from(
    config: &WorldConfig,
    window: u64,
    kill_after: usize,
    stored: impl Fn(&str) -> String,
) {
    let snowball = SnowballConfig { threads: 1, ..Default::default() };

    let mut uninterrupted = Engine::new(config, &snowball, 0).expect("engine");
    while uninterrupted.ingest_window(window).is_some() {}
    let expected = final_artifact(&mut uninterrupted);

    let mut engine = Engine::new(config, &snowball, 0).expect("engine");
    for _ in 0..kill_after {
        if engine.ingest_window(window).is_none() {
            break;
        }
    }
    let json = engine.checkpoint().to_json().expect("checkpoint json");
    drop(engine); // the "kill": nothing survives but the serialized bytes

    let ckpt = EngineCheckpoint::from_json(&stored(&json)).expect("checkpoint parse");
    // The checkpoint itself is byte-stable through a round trip.
    assert_eq!(ckpt.to_json().expect("re-serialize"), json);

    let mut restored = Engine::restore(&ckpt).expect("restore");
    while restored.ingest_window(window).is_some() {}
    let actual = final_artifact(&mut restored);
    assert_eq!(expected, actual, "restored run diverged from uninterrupted run");
}

#[test]
fn tiny_restart_mid_stream_converges() {
    assert_restart_converges(&WorldConfig::tiny(42), 97, 5);
}

#[test]
fn restore_before_any_window_is_a_cold_start() {
    assert_restart_converges(&WorldConfig::micro(42), 50, 0);
}

#[test]
fn restore_after_final_window_is_idempotent() {
    assert_restart_converges(&WorldConfig::micro(42), 50, usize::MAX);
}

/// Checkpoints from builds that still had a shard setting carry a
/// `"shards"` field after `"snowball"`; it is ignored on load.
#[test]
fn checkpoint_with_retired_shards_field_restores() {
    assert_restart_converges_from(&WorldConfig::tiny(42), 97, 5, |json| {
        let legacy = json.replacen(",\"epoch\":", ",\"shards\":16,\"epoch\":", 1);
        assert_ne!(legacy, json, "no epoch field to anchor the shards field on");
        legacy
    });
}

/// `save` replaces the file in one step: a reader loading the
/// checkpoint while it is rewritten always gets a whole one.
#[test]
fn loads_during_saves_always_parse() {
    let snowball = SnowballConfig { threads: 1, ..Default::default() };
    let mut engine = Engine::new(&WorldConfig::micro(42), &snowball, 0).expect("engine");
    while engine.ingest_window(40).is_some() {}
    let ckpt = engine.checkpoint();
    let dir = std::env::temp_dir().join(format!("daas_ckpt_atomic_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("engine.ckpt.json");
    ckpt.save(&path).expect("first save");

    let done = AtomicBool::new(false);
    let start = Barrier::new(2);
    let (loads, failures) = thread::scope(|s| {
        let reader = s.spawn(|| {
            start.wait();
            let (mut loads, mut failures) = (0usize, Vec::new());
            while !done.load(Ordering::Relaxed) {
                loads += 1;
                if let Err(e) = EngineCheckpoint::load(&path) {
                    failures.push(e);
                }
            }
            (loads, failures)
        });
        start.wait();
        for _ in 0..200 {
            ckpt.save(&path).expect("save");
        }
        done.store(true, Ordering::Relaxed);
        reader.join().expect("reader thread")
    });
    assert!(
        failures.is_empty(),
        "{} of {loads} loads during saves failed, first: {}",
        failures.len(),
        failures[0]
    );
    let leftovers: Vec<_> = std::fs::read_dir(&dir).expect("read dir").flatten().collect();
    assert_eq!(leftovers.len(), 1, "temporary files left behind: {leftovers:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restored_engine_resumes_at_the_checkpoint_watermark() {
    let config = WorldConfig::micro(42);
    let snowball = SnowballConfig { threads: 1, ..Default::default() };
    let mut engine = Engine::new(&config, &snowball, 0).expect("engine");
    engine.ingest_window(40);
    engine.ingest_window(40);
    let watermark = engine.watermark();
    let epoch = engine.epoch();
    assert!(watermark > 0);

    let restored = Engine::restore(&engine.checkpoint()).expect("restore");
    assert_eq!(restored.watermark(), watermark);
    // Restore publishes a fresh snapshot: the epoch sequence continues
    // past the checkpointed one rather than restarting at zero.
    assert!(restored.epoch() > epoch);
    let snap = restored.snapshot();
    assert_eq!(snap.watermark, watermark);
    assert_eq!(snap.counts, engine.dataset().counts());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole property: killing the engine at *any* window
    /// boundary, with *any* window size, restores to a byte-identical
    /// end state.
    #[test]
    fn micro_restart_at_any_boundary_converges(
        window in 1u64..=120,
        kill_after in 0usize..8,
        seed in 40u64..44,
    ) {
        assert_restart_converges(&WorldConfig::micro(seed), window, kill_after);
    }
}

/// Paper-scale variant for the CI full-scale lane:
/// `cargo test --release -p daas-serve -- --ignored`.
#[test]
#[ignore]
fn paper_scale_restart_converges() {
    let mut config = WorldConfig::paper_scale(42);
    config.scale = 0.05;
    assert_restart_converges(&config, 720, 3);
}
