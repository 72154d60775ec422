//! CI smoke gate for the streaming pipeline: replays a small world
//! through [`daas_cli::Pipeline::live`] with the obs recorder on, then
//! fails if the incremental clusterer's total window-update time exceeds
//! what re-clustering every window from scratch would have cost.
//!
//! The baseline is measured in the *same run* (a relative gate), so the
//! verdict is stable across machine speeds: both sides see the same
//! container, the same build and the same world.
//!
//! Environment: `DAAS_SCALE` (default 0.05) scales the world;
//! `DAAS_SMOKE_WINDOW` (default 720 blocks) sets the poll window. The
//! smoke window is deliberately smaller than the production 7 200-block
//! window so even a small world replays enough polls for the relative
//! gate to be meaningful.

use std::time::Instant;

use daas_chain::TxId;
use daas_cluster::cluster_prefix;
use daas_world::WorldConfig;

fn fail(msg: &str) -> ! {
    eprintln!("live_smoke: FAIL: {msg}");
    std::process::exit(1);
}

fn main() {
    let scale: f64 =
        std::env::var("DAAS_SCALE").ok().and_then(|v| v.parse().ok()).unwrap_or(0.05);
    let window_blocks: u64 = std::env::var("DAAS_SMOKE_WINDOW")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(720);
    let config = WorldConfig { scale, ..WorldConfig::paper_scale(7) };

    daas_obs::set_enabled(true);
    let run = daas_cli::Pipeline::live(&config, &Default::default(), window_blocks, true, |_| {})
        .unwrap_or_else(|e| fail(&format!("pipeline failed: {e}")));
    daas_obs::set_enabled(false);
    let report = daas_obs::drain();

    if !run.batch_matches {
        fail("streaming artifacts diverged from the batch oracle");
    }
    let n_windows = run.windows.len();
    if n_windows < 2 {
        fail(&format!("world too small to exercise streaming ({n_windows} windows)"));
    }

    let hist = report
        .metrics
        .histograms
        .get("live.window.update_ms{stage=cluster}")
        .unwrap_or_else(|| fail("recorder saw no live.window.update_ms{stage=cluster} samples"));
    let incremental_ms = hist.sum_ms;

    // The naive per-poll baseline, measured here and now: batch-cluster
    // the full prefix from scratch (what every poll would pay without
    // the incremental clusterer), best of three to shave scheduler
    // noise, times the number of windows the replay actually ran.
    let at = run.world.chain.transactions().len() as TxId;
    let scratch_ms = (0..3)
        .map(|_| {
            let t = Instant::now();
            let clustering =
                cluster_prefix(&run.world.chain, &run.world.labels, &run.dataset, at);
            assert!(!clustering.families.is_empty(), "smoke world produced no families");
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min);
    let naive_ms = scratch_ms * n_windows as f64;

    let p50 = hist.quantile_ms(0.5).unwrap_or(0.0);
    let p95 = hist.quantile_ms(0.95).unwrap_or(0.0);
    println!(
        "live_smoke: scale {scale}, {n_windows} windows, {families} families | \
         incremental cluster total {incremental_ms:.2} ms (p50 {p50:.3} ms, p95 {p95:.3} ms) \
         vs scratch baseline {naive_ms:.2} ms ({scratch_ms:.2} ms/window)",
        families = run.clustering.families.len(),
    );

    if incremental_ms > naive_ms {
        fail(&format!(
            "incremental window updates ({incremental_ms:.2} ms) cost more than \
             re-clustering from scratch every window ({naive_ms:.2} ms)"
        ));
    }
    println!("live_smoke: OK");
}
