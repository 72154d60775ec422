//! Kill/restore convergence: an engine checkpointed at an arbitrary
//! window boundary, serialized to JSON, restored in a fresh process
//! image (new chain arena, new interner) and run to the end must
//! produce the final dataset, clustering and §6 reports byte-for-byte
//! identical to an uninterrupted run — and to the batch pipeline, which
//! the uninterrupted live run is already gated against elsewhere.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::thread;

use daas_chain::{format_year_month, TxId};
use daas_cluster::ClustererCheckpoint;
use daas_detector::SnowballConfig;
use daas_measure::{MeasureConfig, MeasuredIncident};
use daas_serve::{Engine, EngineCheckpoint};
use daas_world::{World, WorldConfig};
use eth_types::Address;
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

    // The checkpoint itself is byte-stable through a round trip.
    let ckpt = EngineCheckpoint::from_json(&json).expect("checkpoint parse");
    assert_eq!(ckpt.to_json().expect("re-serialize"), json);

    let ckpt = EngineCheckpoint::from_json(&stored(&json)).expect("stored checkpoint parse");
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
        assert_dropped_on_load(&legacy, json);
        legacy
    });
}

/// Checkpoints from builds that kept running per-account, per-victim
/// and per-month views carry those accumulators in `"measure"`, before
/// `"total_usd"`; they are ignored on load.
#[test]
fn checkpoint_with_retired_measure_fields_restores() {
    assert_restart_converges_from(&WorldConfig::tiny(42), 97, 5, |json| {
        let ckpt = EngineCheckpoint::from_json(json).expect("checkpoint parse");
        assert!(!ckpt.measure.incidents.is_empty(), "no incidents to derive the views from");
        let anchor = ",\"total_usd\":";
        assert_eq!(json.matches(anchor).count(), 1, "one total_usd field to anchor on");
        let fields = retired_measure_fields(&ckpt.measure.incidents);
        let legacy = json.replacen(anchor, &format!(",{fields}{anchor}"), 1);
        assert_dropped_on_load(&legacy, json);
        legacy
    });
}

/// Checkpoints from builds that kept a first-contact index for the
/// expansion guard carry it in `"detector"`, after `"dataset"`; it is
/// ignored on load.
#[test]
fn checkpoint_with_retired_touch_min_restores() {
    assert_restart_converges_from(&WorldConfig::tiny(42), 97, 5, |json| {
        let ckpt = EngineCheckpoint::from_json(json).expect("checkpoint parse");
        let touch_min = retired_touch_min(&ckpt);
        assert!(!touch_min.is_empty(), "no dataset contacts to index");
        let anchor = "},\"clusterer\":";
        assert_eq!(json.matches(anchor).count(), 1, "one clusterer field to anchor on");
        let field = format!(",\"touch_min\":{}{anchor}", to_json(&touch_min));
        let legacy = json.replacen(anchor, &field, 1);
        assert_dropped_on_load(&legacy, json);
        legacy
    });
}

/// The first-contact index as the retired field held it: for every
/// address, the earliest transaction below the detector's cursor that
/// touches it and a dataset member other than itself, as `[address,
/// tx]` pairs sorted by address.
fn retired_touch_min(ckpt: &EngineCheckpoint) -> Vec<(Address, TxId)> {
    let world = World::build(&ckpt.config).expect("world");
    let chain = &world.chain;
    let ds = &ckpt.detector.dataset;
    let member = |a: &Address| {
        ds.contracts.contains(a) || ds.operators.contains(a) || ds.affiliates.contains(a)
    };
    let mut first: BTreeMap<Address, TxId> = BTreeMap::new();
    for txid in 0..ckpt.detector.cursor {
        let touched: Vec<Address> = chain
            .transactions()
            .touched_ids(txid)
            .into_iter()
            .map(|id| chain.resolve_addr(id))
            .collect();
        let members = touched.iter().filter(|a| member(a)).count();
        for a in touched {
            // Transactions run in id order, so the first insert is the minimum.
            if members > usize::from(member(&a)) {
                first.entry(a).or_insert(txid);
            }
        }
    }
    first.into_iter().collect()
}

/// Vote multisets are counted on restore, so the order of the operators
/// in each one does not matter. Targets voted for by two operators
/// first appear at about scale 0.1; the tiny and micro worlds have none.
#[test]
fn checkpoint_with_reordered_vote_multisets_restores() {
    let mut config = WorldConfig::paper_scale(42);
    config.scale = 0.1;
    assert_restart_converges_from(&config, 720, 12, |json| {
        let mut ckpt = EngineCheckpoint::from_json(json).expect("checkpoint parse");
        let clusterer = &mut ckpt.clusterer;
        let mut reordered = 0;
        for (_, ops) in clusterer.contract_ops.iter_mut().chain(&mut clusterer.affiliate_ops) {
            let before = ops.clone();
            ops.reverse();
            reordered += usize::from(*ops != before);
        }
        assert!(reordered > 0, "no multiset with two distinct operators to reorder");
        ckpt.to_json().expect("re-serialize")
    });
}

/// Asserts that loading `stored` and writing it back gives `json`: the
/// fields it adds are dropped on load.
fn assert_dropped_on_load(stored: &str, json: &str) {
    let loaded = EngineCheckpoint::from_json(stored).expect("stored checkpoint parse");
    assert_eq!(loaded.to_json().expect("re-serialize"), json, "the extra fields survived a load");
}

/// The `"measure"` fields the retired running views were written as,
/// derived from `incidents` in the shapes and order those builds used.
fn retired_measure_fields(incidents: &[MeasuredIncident]) -> String {
    let mut loss: BTreeMap<Address, f64> = BTreeMap::new();
    let mut operator: BTreeMap<Address, f64> = BTreeMap::new();
    let mut affiliate: BTreeMap<Address, f64> = BTreeMap::new();
    let mut ratios: BTreeMap<u32, usize> = BTreeMap::new();
    let mut months: BTreeMap<String, (BTreeSet<Address>, usize, f64)> = BTreeMap::new();
    let (mut first_ts, mut last_ts) = (u64::MAX, 0);
    for inc in incidents {
        *loss.entry(inc.victim).or_default() += inc.usd;
        *operator.entry(inc.operator).or_default() += inc.operator_usd;
        *affiliate.entry(inc.affiliate).or_default() += inc.affiliate_usd;
        *ratios.entry(inc.ratio_bps).or_default() += 1;
        let month = months.entry(format_year_month(inc.timestamp)).or_default();
        month.0.insert(inc.victim);
        month.1 += 1;
        month.2 += inc.usd;
        first_ts = first_ts.min(inc.timestamp);
        last_ts = last_ts.max(inc.timestamp);
    }
    let pairs = |map: BTreeMap<Address, f64>| to_json(&map.into_iter().collect::<Vec<_>>());
    let by_month: Vec<String> = months
        .into_iter()
        .map(|(month, (victims, incidents, usd))| {
            let victims: Vec<Address> = victims.into_iter().collect();
            format!(
                "{{\"month\":{},\"victims\":{},\"incidents\":{incidents},\"usd\":{}}}",
                to_json(&month),
                to_json(&victims),
                to_json(&usd)
            )
        })
        .collect();
    format!(
        "\"loss_per_victim\":{},\"profit_per_operator\":{},\"profit_per_affiliate\":{},\
         \"ratio_counts\":{},\"by_month\":[{}],\"first_ts\":{first_ts},\"last_ts\":{last_ts}",
        pairs(loss),
        pairs(operator),
        pairs(affiliate),
        to_json(&ratios.into_iter().collect::<Vec<_>>()),
        by_month.join(",")
    )
}

/// A checkpoint of the tiny world five 97-block windows in.
fn mid_stream_checkpoint() -> EngineCheckpoint {
    let snowball = SnowballConfig { threads: 1, ..Default::default() };
    let mut engine = Engine::new(&WorldConfig::tiny(42), &snowball, 0).expect("engine");
    for _ in 0..5 {
        engine.ingest_window(97);
    }
    let ckpt = engine.checkpoint();
    assert!(ckpt.clusterer.comps.len() >= 2, "the edits below need two components");
    ckpt
}

/// Restores [`mid_stream_checkpoint`] with its clusterer state edited,
/// and returns the refusal.
fn refusal(edit: impl FnOnce(&mut ClustererCheckpoint)) -> String {
    refusal_of(|ckpt| edit(&mut ckpt.clusterer))
}

/// Restores [`mid_stream_checkpoint`] edited, and returns the refusal.
fn refusal_of(edit: impl FnOnce(&mut EngineCheckpoint)) -> String {
    let mut ckpt = mid_stream_checkpoint();
    edit(&mut ckpt);
    match Engine::restore(&ckpt) {
        Ok(_) => panic!("the edited checkpoint restored"),
        Err(e) => e,
    }
}

#[test]
fn restore_refuses_an_address_the_chain_never_interned() {
    let err = refusal(|c| c.comps[0].members.push(Address([0x42; 20])));
    assert!(err.contains("is not interned"), "{err}");
}

#[test]
fn restore_refuses_an_operator_in_two_components() {
    let err = refusal(|c| {
        let op = c.comps[0].members[0];
        c.comps[1].members.push(op);
    });
    assert!(err.contains("listed in two components"), "{err}");
}

#[test]
fn restore_refuses_a_component_id_at_or_above_next_cid() {
    let err = refusal(|c| c.next_cid = c.comps.last().expect("a component").cid);
    assert!(err.contains("next_cid"), "{err}");
}

#[test]
fn restore_refuses_empty_and_repeated_components() {
    let err = refusal(|c| c.comps[0].members.clear());
    assert!(err.contains("has no members"), "{err}");
    let err = refusal(|c| {
        let mut twin = c.comps[0].clone();
        twin.members = c.comps[1].members.clone();
        c.comps.remove(1);
        c.comps.push(twin);
    });
    assert!(err.contains("listed twice"), "{err}");
}

#[test]
fn restore_refuses_incidents_out_of_transaction_order() {
    let err = refusal_of(|ckpt| ckpt.measure.incidents.swap(0, 1));
    assert!(err.contains("follows"), "{err}");
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
