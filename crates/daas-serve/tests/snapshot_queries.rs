//! Epoch-swapped snapshot reads under concurrent ingestion, and the
//! JSONL query layer answered from published snapshots.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::thread;

use daas_detector::SnowballConfig;
use daas_serve::protocol::{answer_query, Request};
use daas_serve::Engine;
use daas_world::WorldConfig;

fn engine(config: &WorldConfig) -> Engine {
    let snowball = SnowballConfig { threads: 1, ..Default::default() };
    Engine::new(config, &snowball, 0).expect("engine")
}

#[test]
fn readers_never_block_ingest_and_see_monotonic_epochs() {
    let mut eng = engine(&WorldConfig::tiny(42));
    let cell = eng.snapshot_cell();
    let done = Arc::new(std::sync::atomic::AtomicBool::new(false));

    let mut readers = Vec::new();
    for _ in 0..4 {
        let cell = Arc::clone(&cell);
        let done = Arc::clone(&done);
        readers.push(thread::spawn(move || {
            let mut last_epoch = 0u64;
            let mut epochs = BTreeSet::new();
            let mut queries = 0usize;
            while !done.load(std::sync::atomic::Ordering::Relaxed) || queries < 250 {
                let snap = cell.load();
                // Epochs only move forward.
                assert!(snap.epoch >= last_epoch, "epoch went backwards");
                last_epoch = snap.epoch;
                epochs.insert(snap.epoch);
                // Exercise the lazy indices from reader threads.
                let line = answer_query(
                    &snap,
                    &Request::parse("{\"cmd\":\"stats\"}").expect("request"),
                )
                .expect("stats is a query");
                assert!(line.contains("\"ok\":true"), "{line}");
                queries += 1;
            }
            (epochs, queries)
        }));
    }

    let windows = eng.run_to_end(37, |_| {});
    assert!(!windows.is_empty());
    done.store(true, std::sync::atomic::Ordering::Relaxed);
    let mut total_queries = 0;
    for reader in readers {
        let (epochs, queries) = reader.join().expect("reader");
        // Readers observed the stream advancing, not just the final
        // state.
        assert!(epochs.len() > 1, "reader saw a single epoch");
        total_queries += queries;
    }
    assert!(total_queries >= 1000, "only {total_queries} queries ran");
}

#[test]
fn query_layer_matches_engine_state() {
    let mut eng = engine(&WorldConfig::tiny(42));
    eng.run_to_end(64, |_| {});
    let reports = eng.reports(&daas_measure::MeasureConfig::sequential());
    let snap = eng.snapshot();
    assert!(snap.done);

    // status reflects the converged dataset.
    let counts = eng.dataset().counts();
    let status =
        answer_query(&snap, &Request::parse("{\"cmd\":\"status\"}").unwrap()).unwrap();
    assert!(status.contains(&format!("\"contracts\":{}", counts.contracts)), "{status}");
    assert!(status.contains(&format!("\"ps_txs\":{}", counts.ps_txs)), "{status}");
    assert!(status.contains("\"done\":true"), "{status}");

    // Every discovered contract resolves as a drainer contract with a
    // family.
    let contract = *snap.contracts.iter().next().expect("tiny world finds contracts");
    let line = answer_query(
        &snap,
        &Request::parse(&format!("{{\"cmd\":\"risk\",\"address\":\"{contract}\"}}")).unwrap(),
    )
    .unwrap();
    assert!(line.contains("\"is_daas\":true"), "{line}");
    assert!(line.contains("contract"), "{line}");

    // Victim losses from the snapshot agree with the §6 victim report.
    let victim_total: f64 = snap.victim_losses().values().map(|(usd, _)| usd).sum();
    assert!(
        (victim_total - reports.victims.total_usd).abs() < 1e-6,
        "snapshot {victim_total} vs reports {}",
        reports.victims.total_usd
    );
    // And the stat bundle counts the same incident set.
    assert_eq!(snap.stat_bundle().incidents, snap.incidents.len());
    assert_eq!(snap.stat_bundle().victims, snap.victim_losses().len());

    // family endpoint round-trips by id and by member address.
    if let Some(family) = snap.families.first() {
        let by_id = answer_query(
            &snap,
            &Request::parse(&format!("{{\"cmd\":\"family\",\"id\":{}}}", family.id)).unwrap(),
        )
        .unwrap();
        assert!(by_id.contains(&format!("\"id\":{}", family.id)), "{by_id}");
        if let Some(op) = family.operators.first() {
            let by_addr = answer_query(
                &snap,
                &Request::parse(&format!("{{\"cmd\":\"family\",\"address\":\"{op}\"}}"))
                    .unwrap(),
            )
            .unwrap();
            assert!(by_addr.contains(&format!("\"id\":{}", family.id)), "{by_addr}");
        }
    }
}

#[test]
fn idle_window_publishes_cheap_epochs() {
    let mut eng = engine(&WorldConfig::micro(42));
    let first = eng.ingest_window(10_000_000).expect("one giant window");
    assert!(first.watermark > 0);
    let epoch_after_all = eng.epoch();
    // Stream exhausted: further ingests are None and don't publish.
    assert!(eng.ingest_window(16).is_none());
    assert_eq!(eng.epoch(), epoch_after_all);
    // finish_stream still publishes a final (idempotent) epoch.
    eng.finish_stream();
    assert!(eng.done());
    assert!(eng.snapshot().done);
}

/// Holding epoch k while window k+1 ingests — as the publication cell
/// does — must cost the window, not the incident set: the new epoch's
/// incident map still shares every chunk of epoch k's except the tail
/// the window appended to and one per retroactive incident (a
/// late-admitted contract's older transactions).
#[test]
fn next_window_shares_all_but_its_own_incident_chunks() {
    let mut eng = engine(&WorldConfig::small(3));
    let mut checked = 0;
    loop {
        let prev = eng.snapshot();
        if eng.ingest_window(500).is_none() {
            break;
        }
        let next = eng.snapshot();
        let (old, new) = (&prev.incidents, &next.incidents);
        let added = new.len() - old.len();
        if added < 200 {
            continue;
        }
        let last = old.iter().map(|(&tx, _)| tx).last().unwrap_or(0);
        let retroactive =
            new.iter().filter(|&(&tx, _)| tx < last && !old.contains_key(&tx)).count();
        let diverged = old.chunk_count() - old.shared_chunks_with(new);
        assert!(
            diverged <= 1 + retroactive,
            "epoch {}: {diverged} of {} chunks copied for {added} new incidents \
             ({retroactive} retroactive)",
            next.epoch,
            old.chunk_count()
        );
        checked += 1;
    }
    assert!(checked >= 5, "only {checked} windows added 200+ incidents");
}
