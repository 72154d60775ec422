//! The observability layer's core contract: enabling the recorder
//! changes **no artifact**. Every test here runs the same pipeline with
//! the recorder off and on and diffs the serialized outputs byte for
//! byte — batch and `--live`, micro and tiny worlds, sequential and
//! all-cores schedules — then sanity-checks that the enabled run
//! actually recorded something (the equivalence would be vacuous if the
//! instrumentation never fired).
//!
//! The recorder is process-global, so the tests in this binary
//! serialize on a mutex; other test binaries are separate processes and
//! never see the flag.

use std::sync::{Mutex, MutexGuard, OnceLock};

use daas_cli::{render_table4, run_pipeline, run_website_pipeline, Pipeline};
use daas_lab::detector::SnowballConfig;
use daas_lab::measure::MeasureConfig;
use daas_lab::obs;
use daas_lab::world::{World, WorldConfig};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|p| p.into_inner())
}

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("serializes")
}

/// (dataset, clustering, reports) of a one-shot batch run.
fn batch_artifacts(config: &WorldConfig, threads: usize) -> (String, String, String) {
    let snowball = SnowballConfig { threads, ..Default::default() };
    let pipeline = run_pipeline(config, &snowball).expect("pipeline");
    let measured = pipeline.measured(&MeasureConfig { threads });
    (json(&pipeline.dataset), json(&pipeline.clustering), json(&measured.reports))
}

/// (dataset, clustering, reports, batch_matches) of a streaming replay.
fn live_artifacts(config: &WorldConfig, threads: usize) -> (String, String, String, bool) {
    let snowball = SnowballConfig { threads, ..Default::default() };
    let run = Pipeline::live(config, &snowball, 7, &MeasureConfig { threads }, true, |_| {})
        .expect("live pipeline");
    (json(&run.dataset), json(&run.clustering), json(&run.reports), run.batch_matches)
}

#[test]
fn batch_artifacts_identical_with_recorder_on() {
    let _guard = lock();
    for (config, threads) in [
        (WorldConfig::micro(91), 1usize),
        (WorldConfig::micro(91), 0),
        (WorldConfig::tiny(92), 1),
        (WorldConfig::tiny(92), 0),
    ] {
        obs::set_enabled(false);
        let _ = obs::drain();
        let off = batch_artifacts(&config, threads);

        obs::set_enabled(true);
        let on = batch_artifacts(&config, threads);
        obs::set_enabled(false);
        let report = obs::drain();

        assert_eq!(
            off, on,
            "recorder changed a batch artifact (scale {}, threads {threads})",
            config.scale
        );
        assert!(!report.spans.is_empty(), "enabled run recorded no spans");
        assert!(
            report.metrics.counter("cache.classify.miss") > 0,
            "enabled run recorded no classification traffic"
        );
        assert!(
            report.metrics.gauge("pipeline.stage_ms{stage=world}").is_some(),
            "enabled run recorded no stage gauges"
        );
    }
}

#[test]
fn live_artifacts_identical_with_recorder_on() {
    let _guard = lock();
    for (config, threads) in [
        (WorldConfig::micro(91), 1usize),
        (WorldConfig::micro(91), 0),
        (WorldConfig::tiny(92), 1),
        (WorldConfig::tiny(92), 0),
    ] {
        obs::set_enabled(false);
        let _ = obs::drain();
        let off = live_artifacts(&config, threads);

        obs::set_enabled(true);
        let on = live_artifacts(&config, threads);
        obs::set_enabled(false);
        let report = obs::drain();

        assert_eq!(
            off, on,
            "recorder changed a live artifact (scale {}, threads {threads})",
            config.scale
        );
        assert!(on.3, "live replay diverged from batch with the recorder on");
        assert!(
            report.metrics.counter("live.windows") > 0,
            "enabled live run recorded no windows"
        );
        for stage in ["detect", "cluster", "measure"] {
            let key = format!("live.window.update_ms{{stage={stage}}}");
            let hist = report.metrics.histograms.get(&key).expect("window histogram");
            assert_eq!(
                hist.count,
                report.metrics.counter("live.windows"),
                "one {stage} observation per window"
            );
        }
    }
}

/// The §8.2 website pipeline times each of its phases, and timing them
/// changes nothing it prints.
#[test]
fn website_pipeline_spans_recorded_and_output_unchanged() {
    let _guard = lock();
    let world = World::build(&WorldConfig::tiny(93)).expect("world");
    obs::set_enabled(false);
    let _ = obs::drain();
    let off = render_table4(&run_website_pipeline(&world, 0.8));

    obs::set_enabled(true);
    let on = render_table4(&run_website_pipeline(&world, 0.8));
    obs::set_enabled(false);
    let report = obs::drain();

    assert_eq!(off, on, "recorder changed the rendered Table 4");
    for name in ["websites.fingerprints", "websites.ct_watch", "websites.triage", "websites.crawl"] {
        let count = report.spans.iter().filter(|span| span.name == name).count();
        assert_eq!(count, 1, "one {name} span per website pipeline run");
    }
}

#[test]
fn drained_state_does_not_leak_across_runs() {
    let _guard = lock();
    obs::set_enabled(false);
    let _ = obs::drain();

    obs::set_enabled(true);
    let _ = batch_artifacts(&WorldConfig::micro(91), 1);
    obs::set_enabled(false);
    let first = obs::drain();
    assert!(!first.spans.is_empty());

    // A second drain with no work in between must come back empty.
    let second = obs::drain();
    assert!(second.spans.is_empty());
    assert!(second.metrics.counters.is_empty());
    assert!(second.metrics.gauges.is_empty());
    assert!(second.metrics.histograms.is_empty());
}
