//! `batch-paper`: repeated batch passes over one scale-1.0 world —
//! snowball discovery, family clustering and the §6 report bundle, then
//! the result published as one snapshot and probed by the wallet pool.
//!
//! A batch pass is one window over the whole chain, so its window and
//! per-stage "window" numbers are whole-pass times.

use std::sync::Arc;
use std::time::{Duration, Instant};

use daas_chain::TxId;
use daas_cluster::{cluster_with, ClusterConfig, Clustering};
use daas_detector::{build_dataset_with_cache, ClassificationCache, Dataset, SnowballConfig};
use daas_measure::{MeasureConfig, MeasureCtx};
use daas_serve::Snapshot;
use daas_world::{collection_end, World};
use txgraph::CowMap;

use crate::oracle::Oracle;
use crate::pace::Pace;
use crate::probe::Probe;
use crate::stats::Samples;
use crate::{check_artifact, ms, Args, ChainSize, Outcome, INACTIVE_SECS, SETUP_REPS};

/// Timings of the passes run with one recorder setting.
#[derive(Default)]
struct Passes {
    result_s: Samples,
    window_ms: Samples,
    snowball_ms: Samples,
    cluster_ms: Samples,
    measure_ms: Samples,
    reports_ms: Samples,
    publish_ms: Samples,
    probe: Probe,
}

pub fn run(args: &Args, oracle: &Oracle, out: &mut Outcome) -> Result<(), String> {
    let config = args.world_config();
    let snowball = SnowballConfig::default();
    let threads = snowball.threads;

    let mut pace = Pace::new();
    let mut setup_s = Samples::default();
    let mut world = None;
    daas_obs::set_enabled(args.trace);
    for _ in 0..SETUP_REPS {
        // Drop the previous world first so peak memory holds one.
        drop(world.take());
        let t = Instant::now();
        let built = {
            let _span = daas_obs::span!("bench.world_build");
            World::build_opts(&config, threads, 0)?
        };
        setup_s.push(t.elapsed().as_secs_f64());
        world = Some(built);
    }
    daas_obs::set_enabled(false);
    let world = world.expect("SETUP_REPS is positive");
    let chain = ChainSize::of(&world.chain);
    chain.check(&oracle.chain, out);

    let mut passes = [Passes::default(), Passes::default()];
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut pass = 0usize;
    while pass < 1 + usize::from(args.trace) || Instant::now() < deadline {
        // The traced run alternates untraced and traced passes.
        let traced = args.trace && pass % 2 == 1;
        daas_obs::set_enabled(traced);
        let p = &mut passes[usize::from(traced)];
        let pass_span = daas_obs::span!("bench.pass", pass = pass);
        let t0 = Instant::now();
        let cache = ClassificationCache::new();
        let dataset = {
            let _span = daas_obs::span!("bench.snowball");
            build_dataset_with_cache(&world.chain, &world.labels, &snowball, &cache)
        };
        let t1 = Instant::now();
        let clustering = {
            let _span = daas_obs::span!("bench.cluster");
            cluster_with(
                &world.chain,
                &world.labels,
                &dataset,
                &ClusterConfig { threads },
            )
        };
        let t2 = Instant::now();
        let ctx = {
            let _span = daas_obs::span!("bench.measure_ctx");
            MeasureCtx::new(&world.chain, &dataset, &world.oracle)
        };
        let t3 = Instant::now();
        let reports = {
            let _span = daas_obs::span!("bench.reports");
            ctx.reports(
                &world.labels,
                INACTIVE_SECS,
                collection_end(),
                &MeasureConfig { threads },
            )
        };
        let t4 = Instant::now();
        let snap = {
            let _span = daas_obs::span!("bench.publish");
            publish(&world, &dataset, &clustering, &ctx)
        };
        let t5 = Instant::now();
        drop(pass_span);

        p.result_s.push((t4 - t0).as_secs_f64());
        p.window_ms.push(ms(t5 - t0));
        p.snowball_ms.push(ms(t1 - t0));
        p.cluster_ms.push(ms(t2 - t1));
        p.measure_ms.push(ms(t4 - t2));
        p.reports_ms.push(ms(t4 - t3));
        p.publish_ms.push(ms(t5 - t4));
        if traced {
            let classify = cache.stats();
            out.layers.detector_classify_hit_ratio = classify.hit_rate();
            out.layers.detector_classify_entries = classify.entries as f64;
            out.layers.measure_feature_hit_ratio = ctx.features().stats().hit_rate();
        }
        {
            let _span = daas_obs::span!("bench.probe");
            p.probe.run(&snap, &oracle.pool, &mut pace, out);
        }
        daas_obs::set_enabled(false);
        drop(snap);
        check_artifact(
            out,
            args,
            &oracle.artifact,
            crate::artifact_json(&dataset, &clustering, &reports),
        );
        pass += 1;
    }

    let [plain, traced] = &passes;
    out.meta.push((
        "passes",
        format!("[{}, {}]", plain.result_s.len(), traced.result_s.len()),
    ));
    out.meta.push((
        "threads",
        format!("\"default ({})\"", snowball.effective_threads()),
    ));
    out.meta.push(("shards", "\"default\"".into()));
    out.meta.push(("window_blocks", "\"whole chain\"".into()));
    out.meta
        .push(("client_connections", "\"0 (in-process probe)\"".into()));
    out.meta.push(("setup_reps", SETUP_REPS.to_string()));

    let window = (
        plain.window_ms.quantile(0.5),
        plain.window_ms.quantile(0.95),
    );
    crate::record_end_to_end(out, &setup_s, &plain.result_s, window, &plain.probe, &pace);
    out.timing("window_ms", &plain.window_ms);
    out.timing("snowball_ms", &plain.snowball_ms);
    out.timing("cluster_ms", &plain.cluster_ms);
    out.timing("measure_ms", &plain.measure_ms);
    if args.trace {
        let (t, l) = (traced, &mut out.layers);
        l.world_build_ms = setup_s.median() * 1e3;
        chain.record(l);
        l.detector_snowball_ms = t.snowball_ms.median();
        l.detector_poll_p50_ms = t.snowball_ms.quantile(0.5);
        l.detector_poll_p95_ms = t.snowball_ms.quantile(0.95);
        l.cluster_batch_ms = t.cluster_ms.median();
        l.cluster_window_p50_ms = t.cluster_ms.quantile(0.5);
        l.cluster_window_p95_ms = t.cluster_ms.quantile(0.95);
        l.measure_batch_ms = t.measure_ms.median();
        l.measure_window_p50_ms = t.measure_ms.quantile(0.5);
        l.measure_window_p95_ms = t.measure_ms.quantile(0.95);
        l.measure_final_reports_ms = t.reports_ms.median();
        l.serve_publish_p50_ms = t.publish_ms.quantile(0.5);
        l.serve_publish_p95_ms = t.publish_ms.quantile(0.95);
        crate::record_probe_layers(l, &t.probe);
        l.obs_overhead_pct = crate::overhead_pct(&plain.result_s, &t.result_s);
        crate::save_obs(args)?;
    }
    Ok(())
}

/// Publishes a batch result the way the engine publishes an epoch.
fn publish(
    world: &World,
    dataset: &Dataset,
    clustering: &Clustering,
    ctx: &MeasureCtx<'_>,
) -> Snapshot {
    let mut incidents = CowMap::new();
    let mut total_usd = 0.0;
    for inc in ctx.incidents() {
        total_usd += inc.usd;
        incidents.insert(inc.tx, inc.clone());
    }
    let blocks = world.chain.blocks().len() as u64;
    Snapshot::new(
        1,
        world.chain.transactions().len() as TxId,
        blocks,
        blocks,
        true,
        dataset.counts(),
        Arc::new(clustering.families.clone()),
        Arc::new(dataset.contracts.clone()),
        Arc::new(dataset.operators.clone()),
        Arc::new(dataset.affiliates.clone()),
        incidents,
        total_usd,
    )
}
