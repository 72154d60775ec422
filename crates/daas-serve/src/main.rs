//! daas-serve — the DaaS intelligence daemon.
//!
//! ```text
//! daas-serve [--seed N] [--scale F] [--preset paper|small|tiny|micro]
//!            [--threads N] [--window BLOCKS] [--socket PATH]
//!            [--scrape-addr HOST:PORT] [--slo SPEC.json]
//!            [--restore CKPT.json] [--metrics-out PATH] [--trace-out PATH]
//! ```
//!
//! Speaks the JSONL protocol (see `protocol.rs`) on stdin/stdout and,
//! when `--socket` is given, on a Unix socket that answers each
//! connection on its own thread, up to 64 at once.
//! `--threads` sets the world build's worker count (0 = all cores);
//! everything after the build is sequential on the engine thread.
//! `--scrape-addr` adds a std-only HTTP listener with `GET /metrics`
//! (Prometheus text), `/healthz` (SLO verdicts + engine liveness) and
//! `/readyz` (first-snapshot readiness); `--slo` replaces the built-in
//! serve SLO thresholds with a spec file (see `daas_obs::SloSpec`).
//! `--restore` resumes from an [`daas_serve::EngineCheckpoint`] instead
//! of starting at transaction 0: the world is rebuilt and replayed to
//! the checkpoint's cursor, and a checkpoint that cannot be read or does
//! not match the rebuilt chain ends the process with an error.
//! `--metrics-out` / `--trace-out` write the final drained metrics
//! summary (plus a Prometheus exposition at `PATH.prom`) and the span
//! trace at shutdown, matching daas-cli's flags. Diagnostics go to
//! stderr so stdout stays a clean protocol channel.

use std::path::PathBuf;
use std::process::ExitCode;

use daas_detector::SnowballConfig;
use daas_obs::SloSpec;
use daas_serve::{serve, Engine, EngineCheckpoint, ServeOptions};
use daas_world::WorldConfig;

fn main() -> ExitCode {
    let mut seed = 42u64;
    let mut scale = 0.1f64;
    let mut preset = String::from("paper");
    let mut threads = 0usize;
    let mut window = 64u64;
    let mut socket: Option<PathBuf> = None;
    let mut restore: Option<PathBuf> = None;
    let mut metrics_out: Option<PathBuf> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut scrape_addr: Option<std::net::SocketAddr> = None;
    let mut slo_path: Option<PathBuf> = None;
    let mut seed_set = false;
    let mut scale_set = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        macro_rules! operand {
            ($name:literal) => {
                match args.next() {
                    Some(v) => v,
                    None => return usage(concat!($name, " needs a value")),
                }
            };
        }
        match arg.as_str() {
            "--seed" => match operand!("--seed").parse() {
                Ok(v) => {
                    seed = v;
                    seed_set = true;
                }
                Err(_) => return usage("--seed needs an integer"),
            },
            "--scale" => match operand!("--scale").parse() {
                Ok(v) if v > 0.0 => {
                    scale = v;
                    scale_set = true;
                }
                _ => return usage("--scale needs a positive number"),
            },
            "--preset" => preset = operand!("--preset"),
            "--threads" => match operand!("--threads").parse() {
                Ok(v) => threads = v,
                Err(_) => return usage("--threads needs an integer"),
            },
            "--window" => match operand!("--window").parse() {
                Ok(v) if v > 0 => window = v,
                _ => return usage("--window needs a positive block count"),
            },
            "--socket" => socket = Some(PathBuf::from(operand!("--socket"))),
            "--restore" => restore = Some(PathBuf::from(operand!("--restore"))),
            "--metrics-out" => metrics_out = Some(PathBuf::from(operand!("--metrics-out"))),
            "--trace-out" => trace_out = Some(PathBuf::from(operand!("--trace-out"))),
            "--scrape-addr" => match operand!("--scrape-addr").parse() {
                Ok(addr) => scrape_addr = Some(addr),
                Err(_) => return usage("--scrape-addr needs HOST:PORT"),
            },
            "--slo" => slo_path = Some(PathBuf::from(operand!("--slo"))),
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unknown flag {other:?}")),
        }
    }

    // One switch turns the recorder on for the whole process. A scrape
    // listener implies it so `serve.query_ms` / ingest histograms have
    // data; enabling the recorder is artifact-neutral by the obs
    // equivalence contract, and the scrape/telemetry read path itself
    // never records.
    if metrics_out.is_some() || trace_out.is_some() || scrape_addr.is_some() {
        daas_obs::set_enabled(true);
    }

    let slo = match &slo_path {
        Some(path) => match std::fs::read_to_string(path).map_err(|e| e.to_string()).and_then(|text| SloSpec::from_json(&text)) {
            Ok(spec) => Some(spec),
            Err(e) => {
                eprintln!("daas-serve: bad SLO spec {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let engine = match &restore {
        Some(path) => EngineCheckpoint::load(path).and_then(|ckpt| Engine::restore(&ckpt)),
        None => {
            let mut config = match preset.as_str() {
                "paper" => WorldConfig::paper_scale(seed),
                "small" => WorldConfig::small(seed),
                "tiny" => WorldConfig::tiny(seed),
                "micro" => WorldConfig::micro(seed),
                other => return usage(&format!("unknown preset {other:?}")),
            };
            if seed_set {
                config.seed = seed;
            }
            if scale_set || preset == "paper" {
                config.scale = scale;
            }
            if let Err(e) = config.validate() {
                eprintln!("daas-serve: invalid configuration: {e}");
                return ExitCode::FAILURE;
            }
            let snowball = SnowballConfig { threads, ..Default::default() };
            Engine::new(&config, &snowball, 0)
        }
    };
    let engine = match engine {
        Ok(engine) => engine,
        Err(e) => {
            eprintln!("daas-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "daas-serve: ready epoch={} watermark={} blocks={}/{}{}",
        engine.epoch(),
        engine.watermark(),
        engine.snapshot().blocks_ingested,
        engine.snapshot().total_blocks,
        socket
            .as_ref()
            .map(|p| format!(" socket={}", p.display()))
            .unwrap_or_default(),
    );

    let opts = ServeOptions {
        socket,
        window_blocks: window,
        scrape_addr,
        slo,
        restored: restore.is_some(),
        ..ServeOptions::default()
    };
    let mut code = ExitCode::SUCCESS;
    if let Err(e) = serve(engine, opts) {
        eprintln!("daas-serve: {e}");
        code = ExitCode::FAILURE;
    }
    if metrics_out.is_some() || trace_out.is_some() {
        let sinks =
            daas_obs::write_sinks(&daas_obs::drain(), trace_out.as_deref(), metrics_out.as_deref());
        if let Err(e) = sinks {
            eprintln!("daas-serve: obs sink failed: {e}");
            code = ExitCode::FAILURE;
        }
    }
    code
}

fn usage(error: &str) -> ExitCode {
    if !error.is_empty() {
        eprintln!("daas-serve: {error}");
    }
    eprintln!(
        "usage: daas-serve [--seed N] [--scale F] [--preset paper|small|tiny|micro]\n\
         \x20                 [--threads N] [--window BLOCKS] [--socket PATH]\n\
         \x20                 [--scrape-addr HOST:PORT] [--slo SPEC.json]\n\
         \x20                 [--restore CKPT.json] [--metrics-out PATH] [--trace-out PATH]\n\
         --threads N: world-build worker threads (0 = all cores)"
    );
    if error.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE }
}
