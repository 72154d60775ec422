//! `live-fine`: the scale-1.0 world replayed through the streaming
//! engine in 720-block windows, one fresh engine per replay, with no
//! queries during the replay. The final epoch is then probed by the
//! wallet pool in process.
//!
//! The `*.snowball_ms` / `*.batch_ms` layer metrics are the layer's
//! total over one replay here (the streaming path has no batch pass).

use std::time::{Duration, Instant};

use daas_detector::SnowballConfig;
use daas_measure::MeasureConfig;
use daas_serve::Engine;

use crate::oracle::Oracle;
use crate::pace::Pace;
use crate::probe::Probe;
use crate::stats::{Chunked, Samples};
use crate::{artifact_json, check_artifact, ms, Args, ChainSize, Outcome, WINDOW_BLOCKS};

/// Timings of the replays run with one recorder setting.
#[derive(Default)]
struct Replays {
    setup_s: Samples,
    result_s: Samples,
    window_ms: Chunked,
    detect_ms: Chunked,
    cluster_ms: Chunked,
    measure_ms: Chunked,
    publish_ms: Chunked,
    final_reports_ms: Samples,
    detect_total_ms: Samples,
    cluster_total_ms: Samples,
    measure_total_ms: Samples,
    windows: usize,
    probe: Probe,
}

pub fn run(args: &Args, oracle: &Oracle, out: &mut Outcome) -> Result<(), String> {
    let config = args.world_config();
    let snowball = SnowballConfig::default();
    // The daemon's report settings, so live-fine and serve-mixed do the
    // same work.
    let measure_cfg = MeasureConfig::sequential();
    let mut replays = [Replays::default(), Replays::default()];
    let mut pace = Pace::new();
    let mut chain = None;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut rep = 0usize;
    while rep < 1 + usize::from(args.trace) || Instant::now() < deadline {
        let traced = args.trace && rep % 2 == 1;
        daas_obs::set_enabled(traced);
        let r = &mut replays[usize::from(traced)];
        let t = Instant::now();
        let mut engine = {
            let _span = daas_obs::span!("bench.engine_new");
            Engine::new(&config, &snowball, 0)?
        };
        r.setup_s.push(t.elapsed().as_secs_f64());

        for timing in [
            &mut r.window_ms,
            &mut r.detect_ms,
            &mut r.cluster_ms,
            &mut r.measure_ms,
            &mut r.publish_ms,
        ] {
            timing.next_chunk();
        }
        // Each window, the tail drain and the final reports are timed at
        // the reference pace, read between them; `result_s` is the sum
        // of the paced parts.
        pace.mark();
        let replay_span = daas_obs::span!("bench.replay", rep = rep);
        let (mut detect, mut cluster, mut measure, mut result_ms) = (0.0, 0.0, 0.0, 0.0);
        loop {
            let tw = Instant::now();
            let Some(stats) = ({
                let _span = daas_obs::span!("bench.ingest_window");
                engine.ingest_window(WINDOW_BLOCKS)
            }) else {
                break;
            };
            let wall_ms = ms(tw.elapsed());
            let factor = pace.tick();
            let (wall, d, c, m) = (
                wall_ms * factor,
                ms(stats.detect_time) * factor,
                ms(stats.cluster_time) * factor,
                ms(stats.measure_time) * factor,
            );
            r.window_ms.push(wall);
            r.detect_ms.push(d);
            r.cluster_ms.push(c);
            r.measure_ms.push(m);
            r.publish_ms.push(wall - d - c - m);
            (detect, cluster, measure) = (detect + d, cluster + c, measure + m);
            result_ms += wall;
            r.windows += 1;
            out.check(true, String::new);
        }
        let ((), drain_ms) = pace.time(|| {
            let _span = daas_obs::span!("bench.finish_stream");
            engine.finish_stream();
        });
        let (reports, reports_ms) = pace.time(|| {
            let _span = daas_obs::span!("bench.final_reports");
            engine.reports(&measure_cfg)
        });
        r.final_reports_ms.push(reports_ms);
        r.result_s.push((result_ms + drain_ms + reports_ms) / 1e3);
        drop(replay_span);
        r.detect_total_ms.push(detect);
        r.cluster_total_ms.push(cluster);
        r.measure_total_ms.push(measure);
        {
            let _span = daas_obs::span!("bench.probe");
            r.probe.run(&engine.snapshot(), &oracle.pool, &mut pace, out);
        }
        daas_obs::set_enabled(false);

        if traced {
            let l = &mut out.layers;
            let classify = engine.cache().stats();
            l.detector_classify_hit_ratio = classify.hit_rate();
            l.detector_classify_entries = classify.entries as f64;
            let cs = engine.clusterer_stats();
            let seen = cs.families_reused + cs.families_assembled + cs.families_patched;
            l.cluster_families_reused_ratio = if seen == 0 {
                0.0
            } else {
                cs.families_reused as f64 / seen as f64
            };
            l.cluster_rebuilds = cs.rebuilds as f64;
            l.cluster_merges = cs.merges as f64;
        }
        let size = ChainSize::of(&engine.world().chain);
        size.check(&oracle.chain, out);
        chain = Some(size);
        let clustering = engine.clustering();
        check_artifact(
            out,
            args,
            &oracle.artifact,
            artifact_json(engine.dataset(), &clustering, &reports),
        );
        rep += 1;
    }

    let [plain, traced] = &replays;
    out.meta.push((
        "replays",
        format!("[{}, {}]", plain.result_s.len(), traced.result_s.len()),
    ));
    out.meta.push((
        "threads",
        format!("\"default ({})\"", snowball.effective_threads()),
    ));
    out.meta.push(("shards", "\"default\"".into()));
    out.meta.push(("window_blocks", WINDOW_BLOCKS.to_string()));
    out.meta.push((
        "windows_per_replay",
        (plain.windows / plain.result_s.len().max(1)).to_string(),
    ));
    out.meta.push((
        "client_connections",
        "\"0 (in-process probe after the replay)\"".into(),
    ));

    let window = (
        plain.window_ms.quantile(0.5),
        plain.window_ms.quantile(0.95),
    );
    crate::record_end_to_end(
        out,
        &plain.setup_s,
        &plain.result_s,
        window,
        &plain.probe,
        &pace,
    );
    out.timing("window_ms", &plain.window_ms.pooled());
    if args.trace {
        let (t, l) = (traced, &mut out.layers);
        l.world_build_ms = t.setup_s.median() * 1e3;
        chain.expect("at least one replay").record(l);
        l.detector_snowball_ms = t.detect_total_ms.mean();
        l.detector_poll_p50_ms = t.detect_ms.quantile(0.5);
        l.detector_poll_p95_ms = t.detect_ms.quantile(0.95);
        l.cluster_batch_ms = t.cluster_total_ms.mean();
        l.cluster_window_p50_ms = t.cluster_ms.quantile(0.5);
        l.cluster_window_p95_ms = t.cluster_ms.quantile(0.95);
        l.measure_batch_ms = t.measure_total_ms.mean();
        l.measure_window_p50_ms = t.measure_ms.quantile(0.5);
        l.measure_window_p95_ms = t.measure_ms.quantile(0.95);
        l.measure_final_reports_ms = t.final_reports_ms.mean();
        l.serve_publish_p50_ms = t.publish_ms.quantile(0.5);
        l.serve_publish_p95_ms = t.publish_ms.quantile(0.95);
        crate::record_probe_layers(l, &t.probe);
        l.obs_overhead_pct = crate::overhead_pct(&plain.result_s, &t.result_s);
        crate::save_obs(args)?;
    }
    Ok(())
}
