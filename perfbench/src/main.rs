//! The benchmark runner behind `perfbench/run.py`.
//!
//! ```text
//! perfbench oracle      --seed N --scale F --out DIR
//! perfbench batch-paper --seed N --scale F --out DIR --seconds S --trace 0|1 [--rev R]
//! perfbench live-fine   …same…
//! perfbench serve-mixed …same… --daemon PATH
//! ```
//!
//! `oracle` computes the sequential (`threads = 1`) batch artifact once
//! per seed and writes it, the serve-mixed address pool and the chain's
//! size counters into `DIR`. Each workload then measures for `S`
//! seconds, checks every output against those oracle files outside the
//! timed region, writes a detailed results file into `DIR`, and prints
//! one JSON line: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`.

mod batch;
mod live;
mod oracle;
mod pace;
mod probe;
mod serve;
mod stats;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use daas_cluster::Clustering;
use daas_detector::Dataset;
use daas_measure::MeasureReports;
use daas_world::WorldConfig;

use stats::Samples;

/// Window size of the streaming workloads: 10× finer than the
/// 7 200-block default, so each window's fixed cost dominates.
pub const WINDOW_BLOCKS: u64 = 720;

/// Inactivity threshold of the §6 reports (the paper's one month).
pub const INACTIVE_SECS: u64 = 30 * 86_400;

/// World builds per batch-paper run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// The end-to-end metrics and their units, as in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("result_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("window_p50_ms", "ms"),
    ("window_p95_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("query_p95_ms", "ms"),
    ("first_query_p50_ms", "ms"),
];

/// The per-layer metrics of a traced run: one field per `BENCHMARK.json`
/// name, listed once here with its unit. Each workload fills the fields
/// it has a source for; a layer it never runs reports 0.
macro_rules! layers {
    ($($field:ident = $name:literal $unit:literal,)*) => {
        #[derive(Default)]
        pub struct Layers {
            $(pub $field: f64,)*
        }

        impl Layers {
            /// Every per-layer metric, in `BENCHMARK.json` order.
            fn metrics(&self) -> Vec<Metric> {
                vec![$(Metric { name: $name, value: self.$field, unit: $unit },)*]
            }
        }
    };
}

layers! {
    world_build_ms = "world.build_ms" "ms",
    chain_arena_mb = "chain.arena_mb" "MiB",
    chain_txs = "chain.txs" "count",
    chain_accounts = "chain.accounts" "count",
    detector_snowball_ms = "detector.snowball_ms" "ms",
    detector_classify_hit_ratio = "detector.classify_hit_ratio" "ratio",
    detector_classify_entries = "detector.classify_entries" "count",
    detector_poll_p50_ms = "detector.poll_p50_ms" "ms",
    detector_poll_p95_ms = "detector.poll_p95_ms" "ms",
    cluster_batch_ms = "cluster.batch_ms" "ms",
    cluster_window_p50_ms = "cluster.window_p50_ms" "ms",
    cluster_window_p95_ms = "cluster.window_p95_ms" "ms",
    cluster_families_reused_ratio = "cluster.families_reused_ratio" "ratio",
    cluster_rebuilds = "cluster.rebuilds" "count",
    cluster_merges = "cluster.merges" "count",
    measure_batch_ms = "measure.batch_ms" "ms",
    measure_feature_hit_ratio = "measure.feature_hit_ratio" "ratio",
    measure_window_p50_ms = "measure.window_p50_ms" "ms",
    measure_window_p95_ms = "measure.window_p95_ms" "ms",
    measure_final_reports_ms = "measure.final_reports_ms" "ms",
    serve_publish_p50_ms = "serve.publish_p50_ms" "ms",
    serve_publish_p95_ms = "serve.publish_p95_ms" "ms",
    serve_risk_index_build_ms = "serve.risk_index_build_ms" "ms",
    serve_risk_index_entries = "serve.risk_index_entries" "count",
    serve_query_server_us = "serve.query_server_us" "us",
    serve_query_transport_us = "serve.query_transport_us" "us",
    serve_queries = "serve.queries" "count",
    serve_queries_failed = "serve.queries_failed" "count",
    serve_epochs_seen = "serve.epochs_seen" "count",
    obs_overhead_pct = "obs.overhead_pct" "%",
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub scale: f64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
    pub daemon: Option<PathBuf>,
    pub rev: String,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut it = std::env::args().skip(1);
        let workload = it.next().ok_or("missing workload")?;
        let mut args = Args {
            workload,
            seed: 0,
            scale: 1.0,
            seconds: 10.0,
            trace: false,
            out: PathBuf::from("perfbench/out"),
            daemon: None,
            rev: "unknown".into(),
        };
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--seed" => args.seed = value.parse().map_err(|_| bad())?,
                "--scale" => args.scale = value.parse().map_err(|_| bad())?,
                "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
                "--trace" => args.trace = value == "1",
                "--out" => args.out = PathBuf::from(value),
                "--daemon" => args.daemon = Some(PathBuf::from(value)),
                "--rev" => args.rev = value,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(args)
    }

    /// The scale-`scale` paper world at this seed.
    pub fn world_config(&self) -> WorldConfig {
        WorldConfig {
            scale: self.scale,
            ..WorldConfig::paper_scale(self.seed)
        }
    }

    /// One of the oracle files of this seed and scale.
    pub fn oracle_file(&self, ext: &str) -> PathBuf {
        self.out
            .join(format!("oracle-s{}-x{}.{ext}", self.seed, self.scale))
    }
}

/// One named metric value.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: windows, queries, artifact and pool checks.
    pub attempted: u64,
    /// Operations that failed (a non-`ok` reply or a wrong output).
    pub failed: u64,
    /// Why the run is not correct, if it is not.
    pub errors: Vec<String>,
    /// End-to-end metrics, in `BENCHMARK.json` order.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced run only).
    pub layers: Layers,
    /// Every timing distribution behind the metrics, for the results file.
    pub timings: Vec<(&'static str, Samples)>,
    /// Workload settings recorded with the result.
    pub meta: Vec<(&'static str, String)>,
    /// Per-chunk percentiles of the chunked timings, and the pace
    /// factors, in run order.
    pub per_chunk: Vec<(&'static str, Vec<f64>)>,
}

impl Outcome {
    /// Counts one checked operation; a failed check is also an error.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 16 {
                self.errors.push(what());
            }
        }
    }

    pub fn e2e(&mut self, name: &'static str, value: f64) {
        let unit = END_TO_END
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("unlisted metric {name}"));
        self.end_to_end.push(Metric { name, value, unit });
    }

    pub fn timing(&mut self, name: &'static str, samples: &Samples) {
        self.timings.push((name, samples.clone()));
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// Orders the end-to-end metrics as `BENCHMARK.json` lists them.
    fn finish(&mut self) {
        self.end_to_end
            .sort_by_key(|m| END_TO_END.iter().position(|(n, _)| *n == m.name));
    }
}

/// The end-to-end metrics of the in-process workloads. `result_s` is the
/// mean over passes, for the reason given in [`stats`]; which times are
/// paced is in [`pace`].
pub fn record_end_to_end(
    out: &mut Outcome,
    setup_s: &Samples,
    result_s: &Samples,
    window_ms: (f64, f64),
    probe: &probe::Probe,
    pace: &pace::Pace,
) {
    out.e2e("setup_s", setup_s.median());
    out.e2e("result_s", result_s.mean());
    out.e2e("peak_rss_mb", peak_rss_mb("self").unwrap_or(f64::NAN));
    out.e2e("window_p50_ms", window_ms.0);
    out.e2e("window_p95_ms", window_ms.1);
    out.e2e("query_p50_ms", probe.query_ms.quantile(0.5));
    out.e2e("query_p95_ms", probe.query_ms.quantile(0.95));
    out.e2e("first_query_p50_ms", probe.first_ms.quantile(0.5));
    out.timing("setup_s", setup_s);
    out.timing("result_s", result_s);
    out.timing("query_ms", &probe.query_ms.pooled());
    out.timing("first_query_ms", &probe.first_ms.pooled());
    out.per_chunk
        .push(("query_ms.p50", probe.query_ms.per_chunk(0.5)));
    out.per_chunk
        .push(("query_ms.p95", probe.query_ms.per_chunk(0.95)));
    out.per_chunk
        .push(("first_query_ms.p50", probe.first_ms.per_chunk(0.5)));
    out.per_chunk
        .push(("pace.factor", pace.factors().values().to_vec()));
}

/// The query-side layer metrics of the in-process probe.
pub fn record_probe_layers(l: &mut Layers, probe: &probe::Probe) {
    l.serve_risk_index_build_ms = probe.index_build_ms.quantile(0.5);
    l.serve_risk_index_entries = probe.index_entries as f64;
    l.serve_query_server_us = probe.server_ms.quantile(0.5) * 1e3;
    l.serve_query_transport_us = probe.query_ms.quantile(0.5) * 1e3 - l.serve_query_server_us;
    l.serve_queries = probe.queries as f64;
    l.serve_queries_failed = probe.failed as f64;
    l.serve_epochs_seen = probe.epochs as f64;
}

/// The batch-comparable artifact: exactly the fields the daemon's
/// `artifact` command returns, in its byte format, so every workload is
/// compared with one oracle string.
pub fn artifact_json(
    dataset: &Dataset,
    clustering: &Clustering,
    reports: &MeasureReports,
) -> String {
    let part = |r: Result<String, serde_json::Error>| r.expect("artifact parts serialize");
    format!(
        "{{\"contracts\":{},\"operators\":{},\"affiliates\":{},\"ps_txs\":{},\"clustering\":{},\"reports\":{}}}",
        part(serde_json::to_string(&dataset.contracts)),
        part(serde_json::to_string(&dataset.operators)),
        part(serde_json::to_string(&dataset.affiliates)),
        part(serde_json::to_string(&dataset.ps_txs)),
        part(serde_json::to_string(clustering)),
        part(serde_json::to_string(reports)),
    )
}

/// Compares one artifact with the oracle's, byte for byte; a mismatch
/// is saved beside the results for inspection.
pub fn check_artifact(out: &mut Outcome, args: &Args, oracle: &str, artifact: String) {
    if same_artifact(&artifact, oracle) {
        out.check(true, String::new);
        return;
    }
    let path = args.out.join(format!(
        "{}-s{}.artifact-mismatch.json",
        args.workload, args.seed
    ));
    let _ = std::fs::write(&path, &artifact);
    let first_diff = oracle
        .bytes()
        .zip(artifact.bytes())
        .position(|(a, b)| a != b);
    out.check(false, || {
        format!(
            "{} artifact differs from the sequential oracle (lengths {} vs {}, first differing byte {:?}; saved to {})",
            args.workload,
            artifact.len(),
            oracle.len(),
            first_diff,
            path.display()
        )
    });
}

/// Fields whose last digits depend on `HashMap` iteration order:
/// `laundering_report` sums the values of a std `HashMap` (random per
/// instance), so even two sequential runs can differ in the last bit.
const ORDER_DEPENDENT: [&str; 2] = ["\"operator_mixer_pct\":", "\"operator_exchange_pct\":"];

/// Two artifacts agree when they are byte-identical once the
/// [`ORDER_DEPENDENT`] values are taken out, and those values agree to a
/// relative 1e-12.
fn same_artifact(a: &str, b: &str) -> bool {
    let (rest_a, values_a) = split_order_dependent(a);
    let (rest_b, values_b) = split_order_dependent(b);
    rest_a == rest_b
        && values_a.len() == values_b.len()
        && values_a
            .iter()
            .zip(&values_b)
            .all(|(x, y)| (x - y).abs() <= 1e-12 * x.abs().max(y.abs()))
}

/// The artifact without the [`ORDER_DEPENDENT`] values, and those values
/// in artifact order (NaN where one does not parse, so it never agrees).
fn split_order_dependent(artifact: &str) -> (String, Vec<f64>) {
    let mut rest = String::with_capacity(artifact.len());
    let mut values = Vec::new();
    let mut tail = artifact;
    while let Some((at, key)) = ORDER_DEPENDENT
        .iter()
        .filter_map(|key| tail.find(key).map(|at| (at, key)))
        .min()
    {
        let start = at + key.len();
        let len = tail[start..]
            .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
            .unwrap_or(tail.len() - start);
        rest.push_str(&tail[..start]);
        values.push(tail[start..start + len].parse().unwrap_or(f64::NAN));
        tail = &tail[start + len..];
    }
    rest.push_str(tail);
    (rest, values)
}

/// Peak resident set size of a process in MiB (`VmHWM`).
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line["VmHWM:".len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Size counters of the seed's chain, written by the oracle.
pub struct ChainSize {
    pub txs: usize,
    pub accounts: usize,
    pub arena_bytes: usize,
}

impl ChainSize {
    pub fn of(chain: &daas_chain::Chain) -> Self {
        let store = chain.transactions();
        ChainSize {
            txs: store.len(),
            accounts: store.interner().len(),
            arena_bytes: store.column_bytes().iter().map(|(_, b)| b).sum(),
        }
    }

    pub fn record(&self, l: &mut Layers) {
        l.chain_arena_mb = self.arena_bytes as f64 / (1024.0 * 1024.0);
        l.chain_txs = self.txs as f64;
        l.chain_accounts = self.accounts as f64;
    }

    /// The seed's chain must have the oracle's size exactly.
    pub fn check(&self, oracle: &ChainSize, out: &mut Outcome) {
        out.check(
            self.txs == oracle.txs && self.accounts == oracle.accounts,
            || {
                format!(
                    "chain has {} txs / {} accounts, the oracle's {} / {}",
                    self.txs, self.accounts, oracle.txs, oracle.accounts
                )
            },
        );
    }
}

/// Milliseconds in a duration.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Writes the drained instruments and spans of the traced passes.
pub fn save_obs(args: &Args) -> Result<(), String> {
    let report = daas_obs::drain();
    let stem = args
        .out
        .join(format!("{}-s{}-obs", args.workload, args.seed));
    std::fs::write(
        stem.with_extension("summary.json"),
        daas_obs::summary_json(&report),
    )
    .map_err(|e| e.to_string())?;
    let file =
        std::fs::File::create(stem.with_extension("trace.jsonl")).map_err(|e| e.to_string())?;
    let mut writer = std::io::BufWriter::new(file);
    daas_obs::write_trace_jsonl(&report, &mut writer).map_err(|e| e.to_string())?;
    std::io::Write::flush(&mut writer).map_err(|e| e.to_string())
}

/// Traced-minus-untraced `result_s`, as a percentage of untraced.
pub fn overhead_pct(untraced: &Samples, traced: &Samples) -> f64 {
    (traced.mean() / untraced.mean() - 1.0) * 100.0
}

fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if m.value.is_finite() {
            m.value
        } else {
            f64::MAX
        };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, value, m.unit
        );
    }
    out.push('}');
    out
}

fn write_results(args: &Args, out: &Outcome) -> Result<(), String> {
    let mut doc = String::from("{\n  \"meta\": {");
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut meta: Vec<(&str, String)> = vec![
        ("workload", format!("{:?}", args.workload)),
        ("rev", format!("{:?}", args.rev)),
        ("nproc", nproc.to_string()),
        ("seed", args.seed.to_string()),
        ("scale", format!("{:?}", args.scale)),
        ("seconds", format!("{:?}", args.seconds)),
        ("trace", args.trace.to_string()),
    ];
    meta.extend(out.meta.iter().map(|(k, v)| (*k, v.clone())));
    for (i, (k, v)) in meta.iter().enumerate() {
        let _ = write!(doc, "{}\"{k}\": {v}", if i > 0 { ", " } else { "" });
    }
    let _ = write!(
        doc,
        "}},\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"errors\": [",
        out.correct(),
        out.attempted,
        out.failed,
    );
    for (i, e) in out.errors.iter().enumerate() {
        doc.push_str(if i > 0 { ", " } else { "" });
        daas_obs::json::escape_into(&mut doc, e);
    }
    doc.push_str("],\n");
    let _ = writeln!(doc, "  \"end_to_end\": {},", metrics_json(&out.end_to_end));
    let _ = writeln!(
        doc,
        "  \"per_layer\": {},",
        metrics_json(&out.layers.metrics())
    );
    doc.push_str("  \"timings\": {");
    for (i, (name, samples)) in out.timings.iter().enumerate() {
        let _ = write!(
            doc,
            "{}\n    \"{name}\": {}",
            if i > 0 { "," } else { "" },
            samples.summary_json()
        );
    }
    doc.push_str("\n  },\n  \"per_chunk\": {");
    for (i, (name, values)) in out.per_chunk.iter().enumerate() {
        let _ = write!(doc, "{}\n    \"{name}\": [", if i > 0 { "," } else { "" });
        for (j, v) in values.iter().enumerate() {
            doc.push_str(if j > 0 { ", " } else { "" });
            daas_obs::json::fmt_num(&mut doc, *v);
        }
        doc.push(']');
    }
    doc.push_str("\n  }\n}\n");
    let path = args.out.join(format!(
        "{}-s{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&path, doc).map_err(|e| format!("write {}: {e}", path.display()))
}

fn run(args: &Args) -> Result<Outcome, String> {
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("create {}: {e}", args.out.display()))?;
    if args.workload == "oracle" {
        oracle::write(args)?;
        return Ok(Outcome::default());
    }
    let oracle = oracle::Oracle::load(args)?;
    let mut out = Outcome::default();
    match args.workload.as_str() {
        "batch-paper" => batch::run(args, &oracle, &mut out)?,
        "live-fine" => live::run(args, &oracle, &mut out)?,
        "serve-mixed" => serve::run(args, &oracle, &mut out)?,
        other => return Err(format!("unknown workload {other:?}")),
    }
    out.finish();
    write_results(args, &out)?;
    Ok(out)
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.workload == "oracle" {
        return ExitCode::SUCCESS;
    }
    for e in &out.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let metrics = if args.trace {
        metrics_json(&out.layers.metrics())
    } else {
        metrics_json(&out.end_to_end)
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
    );
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Reads a whole file as a string, naming it on failure.
pub fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::same_artifact;

    #[test]
    fn order_dependent_values_agree_within_tolerance() {
        let oracle = r#"{"a":[1,2],"operator_mixer_pct":12.345678901234567,"operator_exchange_pct":0.1,"b":3}"#;
        let ulp_off = r#"{"a":[1,2],"operator_mixer_pct":12.345678901234568,"operator_exchange_pct":0.1,"b":3}"#;
        assert!(same_artifact(oracle, oracle));
        assert!(same_artifact(ulp_off, oracle));
        let off = r#"{"a":[1,2],"operator_mixer_pct":12.3457,"operator_exchange_pct":0.1,"b":3}"#;
        assert!(!same_artifact(off, oracle));
        let elsewhere = r#"{"a":[1,3],"operator_mixer_pct":12.345678901234567,"operator_exchange_pct":0.1,"b":3}"#;
        assert!(!same_artifact(elsewhere, oracle));
        let missing = r#"{"a":[1,2],"operator_exchange_pct":0.1,"b":3}"#;
        assert!(!same_artifact(missing, oracle));
    }
}
