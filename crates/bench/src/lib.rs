//! Shared scaffolding for the experiment harnesses: seed, scale and
//! sink settings read from the environment, so every `exp_*` binary
//! behaves the same.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::Path;

/// Observability plumbing for the experiment harnesses, mirroring the
/// CLI's `--trace-out` / `--metrics-out` flags as environment knobs:
/// `DAAS_TRACE=FILE` writes the JSONL span trace, `DAAS_METRICS=FILE`
/// writes the JSON metrics summary plus a Prometheus exposition at
/// `FILE.prom`. Hold the guard for the whole run — the sinks are
/// written when it drops. With neither variable set the recorder stays
/// off and the guard is inert.
pub struct ObsGuard {
    trace: Option<String>,
    metrics: Option<String>,
}

/// Arms [`ObsGuard`] from `DAAS_TRACE` / `DAAS_METRICS`; call first in
/// `main` so every pipeline stage is recorded.
pub fn obs_from_env() -> ObsGuard {
    let trace = std::env::var("DAAS_TRACE").ok().filter(|p| !p.is_empty());
    let metrics = std::env::var("DAAS_METRICS").ok().filter(|p| !p.is_empty());
    if trace.is_some() || metrics.is_some() {
        daas_obs::set_enabled(true);
    }
    ObsGuard { trace, metrics }
}

impl Drop for ObsGuard {
    fn drop(&mut self) {
        let (trace, metrics) = (self.trace.as_deref(), self.metrics.as_deref());
        if trace.is_none() && metrics.is_none() {
            return;
        }
        let report = daas_obs::drain();
        match daas_obs::write_sinks(&report, trace.map(Path::new), metrics.map(Path::new)) {
            Ok(()) => {
                if let Some(path) = trace {
                    eprintln!("[obs] trace written to {path} ({} spans)", report.spans.len());
                }
                if let Some(path) = metrics {
                    eprintln!("[obs] metrics written to {path} (+ {path}.prom)");
                }
            }
            Err(e) => eprintln!("[obs] sink failed: {e}"),
        }
    }
}

/// Reads `DAAS_SEED` (default 42) and `DAAS_SCALE` (default 1.0 — the
/// paper's scale) from the environment.
pub fn env_config() -> (u64, f64) {
    let seed = std::env::var("DAAS_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(42);
    let scale = std::env::var("DAAS_SCALE").ok().and_then(|v| v.parse().ok()).unwrap_or(1.0);
    (seed, scale)
}

/// Builds the standard pipeline at the env-configured seed/scale.
pub fn standard_pipeline() -> daas_cli::Pipeline {
    let (seed, scale) = env_config();
    let config = daas_world::WorldConfig { scale, ..daas_world::WorldConfig::paper_scale(seed) };
    eprintln!("[exp] seed {seed}, scale {scale}");
    daas_cli::run_pipeline(&config, &Default::default()).expect("pipeline builds")
}
