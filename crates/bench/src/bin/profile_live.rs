//! Dev profiler for the streaming pipeline: per-window split of
//! detect / cluster-ingest / cluster-snapshot / measure time, the raw
//! classification sweep, and the batch stage breakdown for comparison.
//!
//! Unlike the Criterion bench this prints every window, so regressions
//! localise to a stage and a point in the stream. `DAAS_SCALE`
//! overrides the world scale (default 1.0).

use std::sync::Arc;
use std::time::{Duration, Instant};

use daas_detector::{ClassificationCache, OnlineDetector};
use daas_measure::LiveMeasure;
use daas_world::{World, WorldConfig};

fn main() {
    let scale: f64 =
        std::env::var("DAAS_SCALE").ok().and_then(|v| v.parse().ok()).unwrap_or(1.0);
    let config = WorldConfig { scale, ..WorldConfig::paper_scale(7) };
    let world = World::build(&config).expect("world builds");
    let snowball = daas_bench::snowball_config();
    let blocks = world.chain.blocks();

    let cache = Arc::new(ClassificationCache::new());
    let mut detector = OnlineDetector::with_cache(snowball.clone(), Arc::clone(&cache));
    let mut clusterer = daas_cluster::OnlineClusterer::with_cache(
        snowball.classifier.clone(),
        Arc::clone(&cache),
    );
    let mut measure = LiveMeasure::with_cache(snowball.classifier.clone(), Arc::clone(&cache));

    let mut tot = [Duration::ZERO; 4];
    let mut start = 0usize;
    let mut w = 0;
    while start < blocks.len() {
        let end = (start + 7_200).min(blocks.len());
        let last = &blocks[end - 1];
        let watermark = last.first_tx + last.tx_count;
        let t0 = Instant::now();
        let events = detector.poll_until(&world.chain, &world.labels, watermark);
        let t1 = Instant::now();
        clusterer.ingest(&world.chain, &world.labels, detector.dataset(), &events, watermark);
        let t2 = Instant::now();
        clusterer.clustering(&world.labels);
        let t3 = Instant::now();
        measure.ingest(&world.chain, &world.oracle, &events);
        let t4 = Instant::now();
        let d = [t1 - t0, t2 - t1, t3 - t2, t4 - t3];
        println!(
            "w{w:02} txs={:>6} ev={:>6} | detect {:>7.2?} ingest {:>7.2?} snapshot {:>7.2?} measure {:>7.2?}",
            watermark, events.len(), d[0], d[1], d[2], d[3],
        );
        for i in 0..4 {
            tot[i] += d[i];
        }
        start = end;
        w += 1;
    }
    println!(
        "TOTAL detect {:.2?} ingest {:.2?} snapshot {:.2?} measure {:.2?}",
        tot[0], tot[1], tot[2], tot[3]
    );
    println!("{:?}", clusterer.stats());
    println!("STREAM cache entries {}", cache.len());

    // Raw ingredient costs, for calibrating the numbers above.
    let n_txs = world.chain.transactions().len() as daas_chain::TxId;
    let t = Instant::now();
    let fresh = daas_detector::ClassificationCache::new();
    let mut pos = 0u64;
    for id in 0..n_txs {
        if fresh.classify(&world.chain, id, &snowball.classifier).is_some() {
            pos += 1;
        }
    }
    println!("CLASSIFY all {n_txs} txs in {:.2?} ({pos} positive)", t.elapsed());

    // Batch stage breakdown for comparison.
    let as_of = daas_world::collection_end();
    let t0 = Instant::now();
    let bcache = daas_detector::ClassificationCache::new();
    let dataset =
        daas_detector::build_dataset_with_cache(&world.chain, &world.labels, &snowball, &bcache);
    let t1 = Instant::now();
    let clustering = daas_cluster::cluster(&world.chain, &world.labels, &dataset);
    let t2 = Instant::now();
    let reports = daas_measure::MeasureCtx::new(&world.chain, &dataset, &world.oracle).reports(
        &world.labels,
        30 * 86_400,
        as_of,
        &daas_measure::MeasureConfig::sequential(),
    );
    let t3 = Instant::now();
    println!("BATCH cache entries {}", bcache.len());
    println!(
        "BATCH build {:.2?} cluster {:.2?} measure {:.2?} (families {} victims {})",
        t1 - t0,
        t2 - t1,
        t3 - t2,
        clustering.families.len(),
        reports.victims.victims,
    );
}
