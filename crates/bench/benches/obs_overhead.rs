//! Criterion: the cost of the observability layer.
//!
//! Two families of numbers in `BENCH_obs_overhead.json`:
//!
//! * the per-site cost of *disabled* instrumentation — the single
//!   relaxed atomic load every hot-path check pays while the recorder
//!   is off (the "zero-cost-when-off" claim, in nanoseconds);
//! * a real stage (micro-world snowball construction) with the
//!   recorder off vs on, so the end-to-end overhead of recording is a
//!   ratio of two wall clocks rather than a microbenchmark guess.
//!
//! The recorder is process-global: the `_on` benchmarks enable it,
//! drain between samples to keep the span ring from evicting, and
//! disable it again before the `_off` numbers are taken.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use daas_detector::{build_dataset_with_cache, ClassificationCache, SnowballConfig};
use daas_world::{World, WorldConfig};

fn bench_obs_overhead(c: &mut Criterion) {
    let world = World::build(&WorldConfig::micro(7)).expect("world");
    let snowball = SnowballConfig::default();

    let mut group = c.benchmark_group("obs_overhead");
    group.sample_size(20);

    // -- Disabled-path site costs. --
    daas_obs::set_enabled(false);
    group.bench_function("disabled_enabled_check", |b| b.iter(|| black_box(daas_obs::enabled())));
    group.bench_function("disabled_span_site", |b| {
        b.iter(|| {
            let _span = daas_obs::span!("bench.noop", i = 1);
        })
    });
    group.bench_function("disabled_counter_site", |b| b.iter(|| daas_obs::add("bench.noop", 1)));
    group.bench_function("disabled_timed_site", |b| {
        b.iter(|| daas_obs::timed("bench.noop_ms", "k", "v", || black_box(1 + 1)))
    });

    // -- Enabled-path site costs (what a recording run pays per site). --
    daas_obs::set_enabled(true);
    group.bench_function("enabled_span_site", |b| {
        b.iter(|| {
            let _span = daas_obs::span!("bench.noop", i = 1);
        })
    });
    group.bench_function("enabled_counter_site", |b| b.iter(|| daas_obs::add("bench.noop", 1)));
    let _ = daas_obs::drain();

    // -- A real stage, recorder off vs on. --
    daas_obs::set_enabled(false);
    group.bench_function("snowball_obs_off", |b| {
        b.iter(|| {
            let cache = ClassificationCache::new();
            build_dataset_with_cache(&world.chain, &world.labels, &snowball, &cache)
        })
    });
    daas_obs::set_enabled(true);
    group.bench_function("snowball_obs_on", |b| {
        b.iter(|| {
            let cache = ClassificationCache::new();
            let dataset = build_dataset_with_cache(&world.chain, &world.labels, &snowball, &cache);
            let _ = daas_obs::drain();
            dataset
        })
    });
    daas_obs::set_enabled(false);
    let _ = daas_obs::drain();

    group.finish();
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
