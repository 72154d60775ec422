//! `serve-mixed`: the release `daas-serve` daemon, one process per
//! replay, ingesting the same 720-block windows one `ingest` command at
//! a time on a control connection while one closed-loop wallet
//! connection sends risk checks back to back through
//! `LiveGuardClient::check_address`.
//!
//! Closed loop, not open: a sleep-paced generator on two busy cores
//! measures mostly its own lateness.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use daas_obs::json::{self, Value};
use eth_types::Address;
use wallet_guard::LiveGuardClient;

use crate::oracle::Oracle;
use crate::stats::{Chunked, Samples};
use crate::{check_artifact, ms, Args, Layers, Outcome, WINDOW_BLOCKS};

/// Longest wait for a daemon to come up or to exit.
const PROCESS_TIMEOUT: Duration = Duration::from_secs(120);

/// Longest wait for one control reply.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Timings of the replays run with one daemon recorder setting.
#[derive(Default)]
struct Replays {
    setup_s: Samples,
    result_s: Samples,
    window_ms: Chunked,
    final_reports_ms: Samples,
    peak_rss_mb: Samples,
    query_ms: Chunked,
    first_ms: Chunked,
    index_build_ms: Chunked,
    index_entries: usize,
    queries: u64,
    queries_failed: u64,
    epochs_seen: u64,
    windows: usize,
    /// Drained daemon instruments (traced replays only), one value per
    /// replay for each of detect, cluster and measure.
    stage_p50_ms: [Samples; 3],
    stage_p95_ms: [Samples; 3],
    stage_total_ms: [Samples; 3],
    publish_ms: Samples,
    server_us: Samples,
}

pub fn run(args: &Args, oracle: &Oracle, out: &mut Outcome) -> Result<(), String> {
    let daemon = args.daemon.as_deref().ok_or("serve-mixed needs --daemon")?;
    let mut replays = [Replays::default(), Replays::default()];
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut rep = 0usize;
    while rep < 1 + usize::from(args.trace) || Instant::now() < deadline {
        let traced = args.trace && rep % 2 == 1;
        replay(
            args,
            oracle,
            daemon,
            traced,
            rep,
            &mut replays[usize::from(traced)],
            out,
        )?;
        rep += 1;
    }

    let [plain, traced] = &replays;
    out.meta.push((
        "replays",
        format!("[{}, {}]", plain.result_s.len(), traced.result_s.len()),
    ));
    out.meta.push(("threads", "\"daemon default\"".into()));
    out.meta.push(("shards", "\"daemon default\"".into()));
    out.meta.push(("window_blocks", WINDOW_BLOCKS.to_string()));
    out.meta.push((
        "windows_per_replay",
        (plain.windows / plain.result_s.len().max(1)).to_string(),
    ));
    out.meta.push((
        "client_connections",
        "\"1 closed-loop wallet + 1 control\"".into(),
    ));
    out.meta.push(("daemon_readers", "2".into()));

    out.e2e("setup_s", plain.setup_s.median());
    out.e2e("result_s", plain.result_s.mean());
    out.e2e("peak_rss_mb", plain.peak_rss_mb.median());
    out.e2e("window_p50_ms", plain.window_ms.quantile(0.5));
    out.e2e("window_p95_ms", plain.window_ms.quantile(0.95));
    out.e2e("query_p50_ms", plain.query_ms.quantile(0.5));
    out.e2e("query_p95_ms", plain.query_ms.quantile(0.95));
    out.e2e("first_query_p50_ms", plain.first_ms.quantile(0.5));
    out.timing("setup_s", &plain.setup_s);
    out.timing("result_s", &plain.result_s);
    out.timing("window_ms", &plain.window_ms.pooled());
    out.timing("query_ms", &plain.query_ms.pooled());
    out.timing("first_query_ms", &plain.first_ms.pooled());
    out.per_chunk
        .push(("window_ms.p50", plain.window_ms.per_chunk(0.5)));
    out.per_chunk
        .push(("query_ms.p50", plain.query_ms.per_chunk(0.5)));
    out.per_chunk
        .push(("query_ms.p95", plain.query_ms.per_chunk(0.95)));
    out.per_chunk
        .push(("query_ms.p99", plain.query_ms.per_chunk(0.99)));
    out.per_chunk
        .push(("first_query_ms.p50", plain.first_ms.per_chunk(0.5)));

    if args.trace {
        let (t, l) = (traced, &mut out.layers);
        l.world_build_ms = t.setup_s.median() * 1e3;
        oracle.chain.record(l);
        let [detect, cluster, measure] = [0, 1, 2];
        l.detector_snowball_ms = t.stage_total_ms[detect].median();
        l.detector_poll_p50_ms = t.stage_p50_ms[detect].median();
        l.detector_poll_p95_ms = t.stage_p95_ms[detect].median();
        l.cluster_batch_ms = t.stage_total_ms[cluster].median();
        l.cluster_window_p50_ms = t.stage_p50_ms[cluster].median();
        l.cluster_window_p95_ms = t.stage_p95_ms[cluster].median();
        l.measure_batch_ms = t.stage_total_ms[measure].median();
        l.measure_window_p50_ms = t.stage_p50_ms[measure].median();
        l.measure_window_p95_ms = t.stage_p95_ms[measure].median();
        l.measure_final_reports_ms = t.final_reports_ms.mean();
        l.serve_publish_p50_ms = t.publish_ms.quantile(0.5);
        l.serve_publish_p95_ms = t.publish_ms.quantile(0.95);
        l.serve_risk_index_build_ms = t.index_build_ms.quantile(0.5);
        l.serve_risk_index_entries = t.index_entries as f64;
        l.serve_query_server_us = t.server_us.median();
        l.serve_query_transport_us = t.query_ms.quantile(0.5) * 1e3 - l.serve_query_server_us;
        l.serve_queries = t.queries as f64;
        l.serve_queries_failed = t.queries_failed as f64;
        l.serve_epochs_seen = t.epochs_seen as f64;
        l.obs_overhead_pct = crate::overhead_pct(&plain.result_s, &t.result_s);
    }
    Ok(())
}

/// Kills and reaps the daemon if a replay ends early.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.0.try_wait(), Ok(None)) {
            let _ = self.0.kill();
        }
        let _ = self.0.wait();
    }
}

/// The operator's control connection.
struct Control {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Control {
    fn connect(socket: &Path) -> std::io::Result<Control> {
        let writer = UnixStream::connect(socket)?;
        writer.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Control {
            reader: BufReader::new(writer.try_clone()?),
            writer,
        })
    }

    /// One request; `Err` on an I/O error or a non-`ok` reply.
    fn ask(&mut self, request: &str) -> Result<String, String> {
        writeln!(self.writer, "{request}").map_err(|e| format!("send {request}: {e}"))?;
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err(format!("daemon closed the connection on {request}")),
            Ok(_) if line.starts_with("{\"ok\":true") => Ok(line),
            Ok(_) => Err(format!("{request} failed: {}", line.trim_end())),
            Err(e) => Err(format!("recv {request}: {e}")),
        }
    }
}

/// What the wallet connection saw while the daemon ingested.
#[derive(Default)]
struct QueryLog {
    query_ms: Samples,
    first_ms: Samples,
    index_build_ms: Samples,
    queries: u64,
    failed: u64,
    epochs: u64,
}

/// Sends risk checks back to back until `stop`. The first answer from
/// each new epoch paid that epoch's risk-index build; the next answer
/// from the same epoch did not.
fn query_loop(
    client: &mut LiveGuardClient,
    pool: &[(Address, bool)],
    stop: &AtomicBool,
) -> QueryLog {
    let mut log = QueryLog::default();
    let mut epoch = None;
    let mut first: Option<f64> = None;
    for &(addr, _) in pool.iter().cycle() {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        log.queries += 1;
        let t = Instant::now();
        match client.check_address(addr) {
            Ok(risk) => {
                let lat = ms(t.elapsed());
                log.query_ms.push(lat);
                if epoch == Some(risk.epoch) {
                    if let Some(first) = first.take() {
                        log.index_build_ms.push(first - lat);
                    }
                } else {
                    epoch = Some(risk.epoch);
                    first = Some(lat);
                    log.first_ms.push(lat);
                    log.epochs += 1;
                }
            }
            Err(_) => {
                log.failed += 1;
                log.query_ms.push_failed();
            }
        }
    }
    log
}

fn replay(
    args: &Args,
    oracle: &Oracle,
    daemon: &Path,
    traced: bool,
    rep: usize,
    r: &mut Replays,
    out: &mut Outcome,
) -> Result<(), String> {
    // A relative path: Unix socket paths are limited to ~108 bytes.
    let socket = args
        .out
        .join(format!("serve-{}-{rep}.sock", std::process::id()));
    let stem = format!("{}-s{}-daemon{rep}", args.workload, args.seed);
    let summary = args.out.join(format!("{stem}.summary.json"));
    let trace = args.out.join(format!("{stem}.trace.jsonl"));
    let mut cmd = Command::new(daemon);
    cmd.arg("--seed")
        .arg(args.seed.to_string())
        .arg("--scale")
        .arg(args.scale.to_string())
        .arg("--window")
        .arg(WINDOW_BLOCKS.to_string())
        .arg("--socket")
        .arg(&socket)
        .stdin(Stdio::null())
        .stdout(Stdio::null());
    if traced {
        cmd.arg("--metrics-out")
            .arg(&summary)
            .arg("--trace-out")
            .arg(&trace);
    }

    let t = Instant::now();
    let mut child = Daemon(
        cmd.spawn()
            .map_err(|e| format!("spawn {}: {e}", daemon.display()))?,
    );
    let mut control = loop {
        if let Ok(control) = Control::connect(&socket) {
            break control;
        }
        if t.elapsed() > PROCESS_TIMEOUT || !matches!(child.0.try_wait(), Ok(None)) {
            return Err("daemon did not come up".into());
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    control.ask("{\"cmd\":\"status\"}")?;
    r.setup_s.push(t.elapsed().as_secs_f64());

    let mut client = LiveGuardClient::connect(&socket)?;
    let stop = AtomicBool::new(false);
    let (log, ingest) = std::thread::scope(|s| {
        let wallet = s.spawn(|| query_loop(&mut client, &oracle.pool, &stop));
        let ingest = ingest_all(&mut control, r, out);
        stop.store(true, Ordering::Relaxed);
        (wallet.join().expect("wallet thread panicked"), ingest)
    });
    ingest?;

    r.query_ms.add_chunk(log.query_ms);
    r.first_ms.add_chunk(log.first_ms);
    r.index_build_ms.add_chunk(log.index_build_ms);
    r.queries += log.queries;
    r.queries_failed += log.failed;
    r.epochs_seen += log.epochs;
    out.attempted += log.queries;
    out.failed += log.failed;
    if log.failed > 0 {
        out.errors
            .push(format!("{} risk checks failed during ingest", log.failed));
    }

    // Output checks, outside the timed region.
    match control.ask("{\"cmd\":\"artifact\"}") {
        Ok(reply) => {
            let artifact = artifact_of(&reply).unwrap_or_default().to_string();
            check_artifact(out, args, &oracle.artifact, artifact);
        }
        Err(e) => out.check(false, || e),
    }
    for &(addr, flagged) in &oracle.pool {
        let is_daas = client.check_address(addr).map(|risk| risk.is_daas);
        out.check(is_daas == Ok(flagged), || {
            format!("risk({addr}) answered {is_daas:?} after done, oracle says {flagged}")
        });
    }
    let status = control.ask("{\"cmd\":\"status\"}")?;
    let status = json::parse(&status)?;
    r.index_entries = ["contracts", "operators", "affiliates"]
        .iter()
        .map(|k| field(&status, &[k]) as usize)
        .sum();
    let pid = child.0.id().to_string();
    r.peak_rss_mb
        .push(crate::peak_rss_mb(&pid).ok_or("no VmHWM for the daemon")?);

    control.ask("{\"cmd\":\"shutdown\"}")?;
    drop(client);
    drop(control);
    let t = Instant::now();
    loop {
        match child.0.try_wait() {
            Ok(Some(status)) if status.success() => break,
            Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
            Ok(None) if t.elapsed() < PROCESS_TIMEOUT => {
                std::thread::sleep(Duration::from_millis(5))
            }
            _ => return Err("daemon did not shut down".into()),
        }
    }
    if traced {
        drained(&summary, &trace, r, &mut out.layers)?;
    }
    Ok(())
}

/// Ingests every window, the tail drain and the final reports; records
/// `result_s`, the per-window round trips and the reports time.
fn ingest_all(control: &mut Control, r: &mut Replays, out: &mut Outcome) -> Result<(), String> {
    let ingest = format!("{{\"cmd\":\"ingest\",\"blocks\":{WINDOW_BLOCKS}}}");
    r.window_ms.next_chunk();
    let t0 = Instant::now();
    loop {
        let tw = Instant::now();
        let reply = control.ask(&ingest);
        let wall = ms(tw.elapsed());
        match reply {
            // A reply naming a window published it; the reply without
            // one is the tail drain after the last window.
            Ok(line) if line.contains("\"window\":") => {
                r.window_ms.push(wall);
                r.windows += 1;
                out.check(true, String::new);
            }
            Ok(_) => break,
            Err(e) => {
                r.window_ms.push_failed();
                out.check(false, || e.clone());
                return Err(e);
            }
        }
    }
    let tr = Instant::now();
    let reports = control.ask("{\"cmd\":\"reports\"}");
    r.final_reports_ms.push(ms(tr.elapsed()));
    r.result_s.push(t0.elapsed().as_secs_f64());
    out.check(reports.is_ok(), || "reports failed".into());
    reports.map(drop)
}

/// The `artifact` object inside `{"ok":true,"epoch":N,"artifact":{…}}`.
fn artifact_of(reply: &str) -> Option<&str> {
    let start = reply.find("\"artifact\":")? + "\"artifact\":".len();
    reply
        .trim_end()
        .strip_suffix('}')
        .map(|body| &body[start..])
}

fn field(value: &Value, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(value, |v, key| v.as_obj()?.get(*key))
        .and_then(Value::as_num)
        .unwrap_or(0.0)
}

/// Reads the traced daemon's drained instruments: per-stage window
/// histograms, risk-query server time, clusterer counters, and the
/// per-window publish time from the span trace.
fn drained(summary: &Path, trace: &Path, r: &mut Replays, l: &mut Layers) -> Result<(), String> {
    let doc = json::parse(&crate::read(summary)?)?;
    let hist = |name: &str, key: &str| field(&doc, &["histograms", name, key]);
    for (i, stage) in ["detect", "cluster", "measure"].into_iter().enumerate() {
        let name = format!("live.window.update_ms{{stage={stage}}}");
        r.stage_p50_ms[i].push(hist(&name, "p50_ms"));
        r.stage_p95_ms[i].push(hist(&name, "p95_ms"));
        r.stage_total_ms[i].push(hist(&name, "sum_ms"));
    }
    let risk = "serve.query_ms{endpoint=risk}";
    r.server_us
        .push(hist(risk, "sum_ms") / hist(risk, "count").max(1.0) * 1e3);
    let counter = |name: &str| field(&doc, &["counters", name]);
    l.cluster_rebuilds = counter("cluster.rebuilds");
    l.cluster_merges = counter("cluster.merges");
    let reused = counter("cluster.families.reused");
    let seen = reused + counter("cluster.families.assembled") + counter("cluster.families.patched");
    l.cluster_families_reused_ratio = if seen == 0.0 { 0.0 } else { reused / seen };

    // Publish = window span minus its detector and clusterer child spans
    // (the measure ingest has no span of its own, so it stays in).
    let mut windows: std::collections::BTreeMap<u64, f64> = Default::default();
    let mut children: Vec<(u64, f64)> = Vec::new();
    for line in crate::read(trace)?.lines() {
        let span = json::parse(line)?;
        let name = span
            .as_obj()
            .and_then(|o| o.get("name"))
            .and_then(Value::as_str)
            .unwrap_or("");
        let id = field(&span, &["id"]) as u64;
        let dur = field(&span, &["dur_ns"]) / 1e6;
        let parent = field(&span, &["parent"]) as u64;
        match name {
            "live.window" => {
                windows.insert(id, dur);
            }
            "detector.poll" | "cluster.ingest" | "cluster.snapshot" => children.push((parent, dur)),
            _ => {}
        }
    }
    for (parent, dur) in children {
        if let Some(window) = windows.get_mut(&parent) {
            *window -= dur;
        }
    }
    windows.values().for_each(|&v| r.publish_ms.push(v));
    Ok(())
}
