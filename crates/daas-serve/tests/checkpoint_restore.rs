//! Kill/restore convergence: an engine checkpointed at an arbitrary
//! window boundary, serialized to JSON, restored in a fresh process
//! image (new chain arena, new interner) and run to the end must
//! produce the final dataset, clustering and §6 reports byte-for-byte
//! identical to an uninterrupted run — and to the batch pipeline, which
//! the uninterrupted live run is already gated against elsewhere. A
//! checkpoint is a cursor plus a chain fingerprint: version-1 files,
//! which also carried the stages' state, restore from their cursor, and
//! a checkpoint that is truncated, edited off a block boundary or taken
//! on another chain is refused with an error naming the field.

use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::thread;

use daas_detector::SnowballConfig;
use daas_measure::MeasureConfig;
use daas_serve::{Engine, EngineCheckpoint};
use daas_world::WorldConfig;
use proptest::prelude::*;

/// `micro(42)` checkpointed after two 40-block windows by a build that
/// wrote format version 1 (the stages' full state, keyed by address).
const V1_MICRO42: &str = include_str!("data/engine_v1_micro42.json");

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

fn sequential() -> SnowballConfig {
    SnowballConfig { threads: 1, ..Default::default() }
}

/// The final artifact of `config` replayed straight through in
/// `window`-block windows.
fn uninterrupted(config: &WorldConfig, window: u64) -> String {
    let mut engine = Engine::new(config, &sequential(), 0).expect("engine");
    while engine.ingest_window(window).is_some() {}
    final_artifact(&mut engine)
}

/// Runs `config` straight through, then again with a kill at window
/// boundary `kill_after`, a JSON checkpoint round-trip and a restore;
/// asserts byte-identical final artifacts.
fn assert_restart_converges(config: &WorldConfig, window: u64, kill_after: usize) {
    let expected = uninterrupted(config, window);

    let mut engine = Engine::new(config, &sequential(), 0).expect("engine");
    for _ in 0..kill_after {
        if engine.ingest_window(window).is_none() {
            break;
        }
    }
    let json = engine.checkpoint().to_json().expect("checkpoint json");
    drop(engine); // the "kill": nothing survives but the serialized bytes

    // The checkpoint itself is byte-stable through a round trip.
    let ckpt = EngineCheckpoint::from_json(&json).expect("checkpoint parse");
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

/// Restores `ckpt`, checks where it resumed, runs it to the end in
/// 40-block windows and returns the final artifact.
fn resume(ckpt: &EngineCheckpoint) -> String {
    let mut restored = Engine::restore(ckpt).expect("restore");
    assert_eq!(restored.watermark(), ckpt.detector.cursor);
    assert_eq!(restored.epoch(), ckpt.epoch + 1);
    while restored.ingest_window(40).is_some() {}
    final_artifact(&mut restored)
}

fn parse(json: &str) -> EngineCheckpoint {
    EngineCheckpoint::from_json(json).expect("checkpoint parse")
}

/// `json` with the first object of the list that follows `anchor`
/// removed.
fn without_first_object(json: &str, anchor: &str) -> String {
    let open = json.find(anchor).expect("anchor") + anchor.len();
    assert_eq!(&json[open..=open], "{", "the list after {anchor} is empty");
    let mut depth = 0;
    let close = open
        + json[open..]
            .bytes()
            .position(|b| {
                depth += i32::from(b == b'{') - i32::from(b == b'}');
                depth == 0
            })
            .expect("a closed object");
    let rest = &json[close + 1..];
    format!("{}{}", &json[..open], rest.strip_prefix(',').unwrap_or(rest))
}

/// A version-1 checkpoint restores from its cursor. The stage state it
/// also carries is ignored, so dropping a clusterer component or a
/// measured incident (edits that used to restore into a silently
/// diverging engine) changes nothing. A cursor moved 7 transactions on
/// lands on a later block boundary here (this world's blocks hold one
/// to three transactions), so the replay resumes there and converges
/// too; a cursor moved inside a block is refused.
#[test]
fn version_1_checkpoints_restore_from_their_cursor() {
    let ckpt = parse(V1_MICRO42);
    assert_eq!((ckpt.version, ckpt.detector.cursor, ckpt.epoch, ckpt.windows), (1, 125, 2, 2));
    assert!(ckpt.chain.is_none(), "version 1 has no chain fingerprint");

    let expected = uninterrupted(&WorldConfig::micro(42), 40);
    assert_eq!(resume(&ckpt), expected, "the v1 restore diverged");
    for anchor in ["\"comps\":[", "\"measure\":{\"incidents\":["] {
        let edited = without_first_object(V1_MICRO42, anchor);
        assert!(edited.len() < V1_MICRO42.len());
        assert_eq!(resume(&parse(&edited)), expected, "dropping the first of {anchor} diverged");
    }

    let mut moved = ckpt.clone();
    moved.detector.cursor += 7;
    assert_eq!(resume(&moved), expected, "a cursor moved to a later boundary diverged");
    let mut inside = ckpt;
    inside.detector.cursor += 1;
    let err = Engine::restore(&inside).err().expect("a cursor inside a block restored");
    assert!(err.contains("detector.cursor") && err.contains("block boundary"), "{err}");
}

/// `micro(42)` checkpointed in version 2 after two 40-block windows,
/// with the engine it was taken from.
fn micro_checkpoint() -> (Engine, EngineCheckpoint) {
    let mut engine = Engine::new(&WorldConfig::micro(42), &sequential(), 0).expect("engine");
    engine.ingest_window(40).expect("a first window");
    engine.ingest_window(40).expect("a second window");
    let ckpt = engine.checkpoint();
    assert_eq!(ckpt.version, EngineCheckpoint::VERSION);
    (engine, ckpt)
}

/// Restores [`micro_checkpoint`] edited, and returns the refusal.
fn refusal(edit: impl FnOnce(&Engine, &mut EngineCheckpoint)) -> String {
    let (engine, mut ckpt) = micro_checkpoint();
    edit(&engine, &mut ckpt);
    match Engine::restore(&ckpt) {
        Ok(_) => panic!("the edited checkpoint restored"),
        Err(e) => e,
    }
}

#[test]
fn truncated_checkpoints_never_parse() {
    let (_, ckpt) = micro_checkpoint();
    let json = ckpt.to_json().expect("checkpoint json");
    for cut in (0..json.len()).filter(|&cut| json.is_char_boundary(cut)) {
        assert!(EngineCheckpoint::from_json(&json[..cut]).is_err(), "{cut} bytes parsed");
    }
}

#[test]
fn restore_refuses_a_cursor_off_a_block_boundary() {
    let err = refusal(|engine, ckpt| {
        let blocks = engine.world().chain.blocks();
        let block = blocks.iter().find(|b| b.tx_count > 1).expect("a block of two transactions");
        ckpt.detector.cursor = block.first_tx + 1;
    });
    assert!(err.contains("detector.cursor") && err.contains("block boundary"), "{err}");
}

#[test]
fn restore_refuses_a_cursor_past_the_chain() {
    let err = refusal(|engine, ckpt| {
        ckpt.detector.cursor = engine.world().chain.transactions().len() as u32 + 1;
    });
    assert!(err.contains("detector.cursor") && err.contains("past the chain"), "{err}");
}

/// A checkpoint whose config rebuilds another chain, or whose
/// fingerprint was edited, does not match the rebuilt chain.
#[test]
fn restore_refuses_a_fingerprint_the_rebuilt_chain_does_not_match() {
    let err = refusal(|_, ckpt| ckpt.config.seed += 1);
    assert!(err.contains("chain.") && err.contains("does not match"), "{err}");
    let err = refusal(|_, ckpt| ckpt.chain.as_mut().expect("a fingerprint").blocks += 1);
    assert!(err.contains("chain.blocks"), "{err}");
    let err = refusal(|engine, ckpt| {
        let first = engine.world().chain.tx(0).hash();
        ckpt.chain.as_mut().expect("a fingerprint").last_tx_hash = first;
    });
    assert!(err.contains("chain.last_tx_hash"), "{err}");
}

#[test]
fn restore_refuses_a_version_2_checkpoint_without_its_fingerprint() {
    let err = refusal(|_, ckpt| ckpt.chain = None);
    assert!(err.contains("version 2") && err.contains("field chain"), "{err}");
}

#[test]
fn restore_refuses_unknown_versions() {
    for version in [0, 3] {
        let err = refusal(|_, ckpt| ckpt.version = version);
        assert!(err.contains(&format!("checkpoint version {version}")), "{err}");
    }
}

/// The daemon turns a checkpoint it cannot restore into an error line
/// and a failing exit, never a panic.
#[test]
fn the_daemon_refuses_a_bad_checkpoint_cleanly() {
    let (_, ckpt) = micro_checkpoint();
    let json = ckpt.to_json().expect("checkpoint json");
    let truncated = &json[..json.len() / 2];
    let unparsable = EngineCheckpoint::from_json(truncated).expect_err("half a checkpoint parsed");
    let mut other_chain = ckpt;
    other_chain.config.seed += 1;
    let mismatch = Engine::restore(&other_chain).err().expect("another chain restored");
    assert!(mismatch.contains("chain."), "{mismatch}");
    let dir = std::env::temp_dir().join(format!("daas_ckpt_refusal_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let cases = [
        ("truncated", truncated.to_owned(), unparsable),
        ("seed-edited", other_chain.to_json().expect("edited json"), mismatch),
    ];
    for (name, contents, reason) in cases {
        let reason = format!("daas-serve: {reason}");
        let path = dir.join(format!("{name}.ckpt.json"));
        std::fs::write(&path, contents).expect("write checkpoint");
        let out = Command::new(env!("CARGO_BIN_EXE_daas-serve"))
            .arg("--restore")
            .arg(&path)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .output()
            .expect("run daas-serve");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "the {name} checkpoint restored: {stderr}");
        assert!(stderr.contains(&reason), "{name}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
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
