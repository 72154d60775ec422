//! The role sets a publish shares into each snapshot. At every epoch
//! they equal the detector's dataset, whether the engine extends its
//! spare set in place (no reader), falls back to a copy (a reader holds
//! old epochs) or starts over from a checkpoint; and a snapshot a
//! reader holds never changes afterwards. The `serve.role_sets`
//! counter says which path each refresh took.
//!
//! The recorder is process-global, so the tests in this binary
//! serialize on a mutex.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use daas_detector::SnowballConfig;
use daas_serve::{Engine, EngineCheckpoint, Snapshot};
use daas_world::WorldConfig;
use eth_types::Address;

const WINDOW: u64 = 97;

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|p| p.into_inner())
}

/// Contracts, operators and affiliates.
type Sets = [BTreeSet<Address>; 3];

fn published(snap: &Snapshot) -> Sets {
    [(*snap.contracts).clone(), (*snap.operators).clone(), (*snap.affiliates).clone()]
}

fn dataset_sets(engine: &Engine) -> Sets {
    let dataset = engine.dataset();
    [dataset.contracts.clone(), dataset.operators.clone(), dataset.affiliates.clone()]
}

fn engine() -> Engine {
    let snowball = SnowballConfig { threads: 1, ..Default::default() };
    Engine::new(&WorldConfig::tiny(42), &snowball, 0).expect("engine")
}

/// Publishes still to come: the current epoch, every remaining window
/// and the tail drain. After each, the snapshot's role sets must equal
/// the dataset's. The reader keeps the epochs `hold` picks, each with
/// the sets it showed when published.
fn replay(engine: &mut Engine, hold: impl Fn(u64) -> bool) -> Vec<(Arc<Snapshot>, Sets)> {
    let mut held = Vec::new();
    let mut check = |engine: &Engine| {
        let snap = engine.snapshot();
        let sets = published(&snap);
        assert_eq!(sets, dataset_sets(engine), "epoch {}", snap.epoch);
        if hold(snap.epoch) {
            held.push((snap, sets));
        }
    };
    check(engine);
    while engine.ingest_window(WINDOW).is_some() {
        check(engine);
    }
    engine.finish_stream();
    check(engine);
    held
}

/// `(reused, copied)` refreshes recorded while `run` ran.
fn refreshes(run: impl FnOnce()) -> (u64, u64) {
    daas_obs::set_enabled(true);
    let _ = daas_obs::drain();
    run();
    daas_obs::set_enabled(false);
    let metrics = daas_obs::drain().metrics;
    let count = |outcome| metrics.counter(&format!("serve.role_sets{{outcome={outcome}}}"));
    (count("reused"), count("copied"))
}

#[test]
fn without_a_reader_each_set_is_copied_once() {
    let _guard = lock();
    let mut engine = engine();
    let (reused, copied) = refreshes(|| {
        replay(&mut engine, |_| false);
    });
    assert!(dataset_sets(&engine).iter().all(|set| !set.is_empty()), "a role set stayed empty");
    // Only the first refresh of each set has no spare to extend.
    assert_eq!(copied, 3);
    assert!(reused > 3, "{reused} reused");
}

#[test]
fn a_reader_holding_old_epochs_forces_copies_and_sees_no_change() {
    let _guard = lock();
    let mut engine = engine();
    let mut held = Vec::new();
    let (reused, copied) = refreshes(|| held = replay(&mut engine, |epoch| epoch % 3 == 0));
    assert!(held.len() > 3, "{} snapshots held", held.len());
    for (snap, sets) in &held {
        assert_eq!(&published(snap), sets, "held epoch {} changed", snap.epoch);
    }
    assert!(copied > 3, "{copied} copied");
    assert!(reused > 0, "{reused} reused");
}

#[test]
fn a_restore_mid_stream_publishes_the_dataset_then_reuses() {
    let _guard = lock();
    let mut engine = engine();
    for _ in 0..5 {
        engine.ingest_window(WINDOW).expect("a window left");
    }
    let json = engine.checkpoint().to_json().expect("checkpoint json");
    drop(engine);
    let ckpt = EngineCheckpoint::from_json(&json).expect("checkpoint parse");
    let mut restored = None;
    let (reused, copied) = refreshes(|| {
        let mut engine = Engine::restore(&ckpt).expect("restore");
        replay(&mut engine, |_| false);
        restored = Some(engine);
    });
    assert!(restored.is_some_and(|engine| engine.done()));
    // The restore's publish has no spare, so it copies each set once. It
    // carries the replay's admissions, so the next publish extends the
    // empty set the engine started from to the right size and reuses it.
    assert_eq!(copied, 3);
    assert!(reused > 0, "{reused} reused");
}
