//! Criterion: streaming vs batch end-to-end cost, and the per-window
//! incremental update against the re-cluster-from-scratch baseline a
//! naive live pipeline would pay every poll.
//!
//! * `batch_total` — one-shot snowball + clustering + §6 bundle.
//! * `streaming_total` — full block-window replay through the online
//!   detector, incremental clusterer and live accumulators, then the
//!   canonical bundle.
//! * `window_update` — apply one more window (poll + ingest + clustering
//!   snapshot) to a mid-chain streaming state; the state clone happens in
//!   the untimed setup, so this is the true steady-state per-poll cost
//!   (the clone deep-copies the detector's and clusterer's hash maps;
//!   only the incident set is a copy-on-write chunk map).
//! * `window_update_delta` — the clustering snapshot alone on a state
//!   with no pending changes: the floor a no-news poll pays, isolating
//!   snapshot cost (Arc-cached family reuse) from ingest cost.
//! * `recluster_scratch` — the baseline: batch-cluster the same prefix
//!   from scratch, which is what each poll would cost without the
//!   incremental clusterer.
//!
//! `DAAS_SCALE` overrides the world scale (default 1.0 — full paper
//! scale, per-window latency is the headline number).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use daas_cluster::{cluster_prefix, cluster_with, ClusterConfig, OnlineClusterer};
use daas_detector::{build_dataset_with_cache, ClassificationCache, OnlineDetector};
use daas_measure::{LiveMeasure, MeasureConfig, MeasureCtx};
use daas_world::{collection_end, World, WorldConfig};

const WINDOW_BLOCKS: usize = 7_200;
const INACTIVE_SECS: u64 = 30 * 86_400;

fn bench_live_pipeline(c: &mut Criterion) {
    let scale: f64 =
        std::env::var("DAAS_SCALE").ok().and_then(|v| v.parse().ok()).unwrap_or(1.0);
    let config = WorldConfig { scale, ..WorldConfig::paper_scale(7) };
    let world = World::build(&config).expect("world builds");
    let snowball = daas_bench::snowball_config();
    let as_of = collection_end();
    let measure_cfg = MeasureConfig::sequential();
    let blocks = world.chain.blocks();
    let txs = world.chain.transactions().len() as u64;

    let mut group = c.benchmark_group("live_pipeline");
    group.sample_size(10);
    group.throughput(Throughput::Elements(txs));

    group.bench_function("batch_total", |b| {
        b.iter(|| {
            let cache = ClassificationCache::new();
            let dataset =
                build_dataset_with_cache(&world.chain, &world.labels, &snowball, &cache);
            let clustering = cluster_with(
                &world.chain,
                &world.labels,
                &dataset,
                &ClusterConfig::sequential(),
            );
            let reports = MeasureCtx::new(&world.chain, &dataset, &world.oracle).reports(
                &world.labels,
                INACTIVE_SECS,
                as_of,
                &measure_cfg,
            );
            (clustering.families.len(), reports.victims.victims)
        })
    });

    group.bench_function("streaming_total", |b| {
        b.iter(|| {
            let cache = Arc::new(ClassificationCache::new());
            let mut detector = OnlineDetector::with_cache(snowball.clone(), Arc::clone(&cache));
            let mut clusterer =
                OnlineClusterer::with_cache(snowball.classifier.clone(), Arc::clone(&cache));
            let mut measure =
                LiveMeasure::with_cache(snowball.classifier.clone(), Arc::clone(&cache));
            let mut start = 0usize;
            while start < blocks.len() {
                let end = (start + WINDOW_BLOCKS).min(blocks.len());
                let last = &blocks[end - 1];
                let watermark = last.first_tx + last.tx_count;
                let events = detector.poll_until(&world.chain, &world.labels, watermark);
                clusterer.ingest(
                    &world.chain,
                    &world.labels,
                    detector.dataset(),
                    &events,
                    watermark,
                );
                clusterer.clustering(&world.labels);
                measure.ingest(&world.chain, &world.oracle, &events);
                start = end;
            }
            let reports = measure.reports(
                &world.chain,
                detector.dataset(),
                &world.oracle,
                &world.labels,
                INACTIVE_SECS,
                as_of,
                &measure_cfg,
            );
            (clusterer.clustering(&world.labels).families.len(), reports.victims.victims)
        })
    });

    // Replay the first half of the windows once; the measured update is
    // the window that follows.
    let half_windows = (blocks.len() / WINDOW_BLOCKS / 2).max(1);
    let mid = (half_windows * WINDOW_BLOCKS).min(blocks.len());
    let next = (mid + WINDOW_BLOCKS).min(blocks.len());
    let mid_mark = blocks[mid - 1].first_tx + blocks[mid - 1].tx_count;
    let next_mark = blocks[next - 1].first_tx + blocks[next - 1].tx_count;
    let window_txs = (next_mark - mid_mark) as u64;

    let cache = Arc::new(ClassificationCache::new());
    let mut detector = OnlineDetector::with_cache(snowball.clone(), Arc::clone(&cache));
    let mut clusterer =
        OnlineClusterer::with_cache(snowball.classifier.clone(), Arc::clone(&cache));
    let mut measure = LiveMeasure::with_cache(snowball.classifier.clone(), Arc::clone(&cache));
    let mut start = 0usize;
    while start < mid {
        let end = (start + WINDOW_BLOCKS).min(mid);
        let last = &blocks[end - 1];
        let watermark = last.first_tx + last.tx_count;
        let events = detector.poll_until(&world.chain, &world.labels, watermark);
        clusterer.ingest(&world.chain, &world.labels, detector.dataset(), &events, watermark);
        clusterer.clustering(&world.labels);
        measure.ingest(&world.chain, &world.oracle, &events);
        start = end;
    }

    group.throughput(Throughput::Elements(window_txs.max(1)));
    group.bench_function("window_update", |b| {
        b.iter_batched(
            || (detector.clone(), clusterer.clone(), measure.clone()),
            |(mut detector, mut clusterer, mut measure)| {
                let events = detector.poll_until(&world.chain, &world.labels, next_mark);
                clusterer.ingest(
                    &world.chain,
                    &world.labels,
                    detector.dataset(),
                    &events,
                    next_mark,
                );
                measure.ingest(&world.chain, &world.oracle, &events);
                clusterer.clustering(&world.labels).families.len()
            },
            BatchSize::LargeInput,
        )
    });

    // Advance the live state through the measured window for the two
    // remaining cases.
    let events = detector.poll_until(&world.chain, &world.labels, next_mark);
    clusterer.ingest(&world.chain, &world.labels, detector.dataset(), &events, next_mark);
    clusterer.clustering(&world.labels);

    // The snapshot floor: nothing changed since the last poll, so the
    // snapshot should be served from the Arc-shared family cache.
    group.bench_function("window_update_delta", |b| {
        b.iter(|| clusterer.clustering(&world.labels).families.len())
    });

    // The naive per-poll baseline: re-cluster the same prefix from
    // scratch (dataset state as of the measured window's end).
    let dataset_at_next = detector.dataset().clone();
    group.bench_function("recluster_scratch", |b| {
        b.iter(|| {
            cluster_prefix(
                &world.chain,
                &world.labels,
                &dataset_at_next,
                next_mark,
                &ClusterConfig::sequential(),
            )
            .families
            .len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_live_pipeline);
criterion_main!(benches);
