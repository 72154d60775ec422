//! The daemon runtime: one engine thread owning all mutable state, an
//! accept thread on a Unix socket that answers each connection on a
//! thread of its own (at most [`MAX_CONNECTIONS`] at once, the same
//! accept code as the scrape port), and a stdin/stdout JSONL loop — std
//! only, no async runtime.
//!
//! Queries never block ingestion: connection threads answer `status` /
//! `risk` / `family` / `victim` / `stats` from the epoch-swapped
//! snapshot cell. Control commands (`ingest`, `run`, `reports`,
//! `artifact`, `checkpoint`, `shutdown`) are forwarded over an mpsc
//! channel to the engine thread, which executes them serially — the
//! engine is single-writer by construction. Each connection waits for
//! its reply, so the channel holds at most one request per connection.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use daas_measure::MeasureConfig;
use daas_obs::json::escape_into;
use daas_obs::SloSpec;

use crate::engine::Engine;
use crate::protocol::{
    answer_query, error_response, read_request_line, QueryClock, Request, RequestLine,
    MAX_REQUEST_LINE,
};
use crate::scrape::spawn_scrape;
use crate::snapshot::SnapshotCell;
use crate::telemetry::Telemetry;

/// How often the sampler feeds the rolling window and re-evaluates
/// SLOs, and the engine loop's heartbeat timeout.
const SAMPLE_EVERY: Duration = Duration::from_millis(250);

/// A non-done daemon that published nothing for this long gets one
/// `stall` journal event per stale period.
const STALL_AFTER_MS: u64 = 5_000;

/// Connections each listener answers at once. One more gets a `busy`
/// error line (a `503` on the scrape port) and is closed.
pub(crate) const MAX_CONNECTIONS: usize = 64;

/// Daemon settings.
pub struct ServeOptions {
    /// Unix socket to listen on (`None` = stdin/stdout only).
    pub socket: Option<PathBuf>,
    /// Default window size in blocks for `ingest` / `run` when the
    /// request doesn't name one.
    pub window_blocks: u64,
    /// Measurement settings for `reports` / `artifact`.
    pub measure: MeasureConfig,
    /// TCP address for the Prometheus scrape listener (`None` = no
    /// listener; port 0 picks a free port, discoverable via the `obs`
    /// query).
    pub scrape_addr: Option<SocketAddr>,
    /// SLO spec for `/healthz` and the `obs` query
    /// (`SloSpec::serve_defaults()` when `None`).
    pub slo: Option<SloSpec>,
    /// `true` when the engine was restored from a checkpoint (recorded
    /// in the boot journal event).
    pub restored: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            socket: None,
            window_blocks: 64,
            measure: MeasureConfig::sequential(),
            scrape_addr: None,
            slo: None,
            restored: false,
        }
    }
}

struct Control {
    req: Request,
    reply: Sender<String>,
}

/// Runs the daemon until a `shutdown` command arrives (from stdin or
/// the socket) or stdin reaches EOF with no socket configured. Blocks
/// the calling thread.
pub fn serve(mut engine: Engine, opts: ServeOptions) -> Result<(), String> {
    let cell = engine.snapshot_cell();
    let (ctl_tx, ctl_rx) = channel::<Control>();
    let window_blocks = opts.window_blocks;
    let measure = opts.measure.clone();
    let stop = Arc::new(AtomicBool::new(false));

    let telemetry = Arc::new(Telemetry::new(
        opts.slo.clone().unwrap_or_else(SloSpec::serve_defaults),
        window_blocks,
    ));
    engine.attach_telemetry(Arc::clone(&telemetry));
    {
        let boot = cell.load();
        telemetry.record(
            "start",
            format!(
                "{{\"restored\":{},\"epoch\":{},\"blocks_ingested\":{},\"total_blocks\":{}}}",
                opts.restored, boot.epoch, boot.blocks_ingested, boot.total_blocks
            ),
        );
        if opts.restored {
            telemetry.record(
                "restore",
                format!("{{\"epoch\":{},\"watermark\":{}}}", boot.epoch, engine.watermark()),
            );
        }
    }

    let engine_stop = Arc::clone(&stop);
    let engine_telemetry = Arc::clone(&telemetry);
    let engine_thread = thread::Builder::new()
        .name("daas-serve-engine".into())
        .spawn(move || {
            engine_loop(engine, ctl_rx, window_blocks, &measure, &engine_stop, &engine_telemetry)
        })
        .map_err(|e| e.to_string())?;

    if let Some(addr) = opts.scrape_addr {
        let bound = spawn_scrape(
            addr,
            Arc::clone(&telemetry),
            Arc::clone(&cell),
            Arc::clone(&stop),
        )?;
        eprintln!("daas-serve: scrape listener on http://{bound}");
    }

    {
        // The sampler: rolling-window feed, SLO re-evaluation (with
        // transition events) and stall detection. Read-only against the
        // metrics registry — it cannot perturb drained artifacts.
        let telemetry = Arc::clone(&telemetry);
        let cell = Arc::clone(&cell);
        let stop = Arc::clone(&stop);
        thread::Builder::new()
            .name("daas-serve-sampler".into())
            .spawn(move || {
                let stall_flag = AtomicBool::new(false);
                while !stop.load(Ordering::Relaxed) {
                    telemetry.sample(&cell, STALL_AFTER_MS, &stall_flag);
                    thread::sleep(SAMPLE_EVERY);
                }
            })
            .map_err(|e| e.to_string())?;
    }

    if let Some(path) = &opts.socket {
        let listener = bind_socket(path)?;
        let cell = Arc::clone(&cell);
        let ctl_tx = ctl_tx.clone();
        let stop = Arc::clone(&stop);
        let telemetry = Arc::clone(&telemetry);
        thread::Builder::new()
            .name("daas-serve-accept".into())
            .spawn(move || accept_loop(listener, cell, ctl_tx, stop, telemetry))
            .map_err(|e| e.to_string())?;
    }

    {
        let cell = Arc::clone(&cell);
        let ctl_tx = ctl_tx.clone();
        let telemetry = Arc::clone(&telemetry);
        let stop = Arc::clone(&stop);
        thread::Builder::new()
            .name("daas-serve-stdin".into())
            .spawn(move || {
                let (stdin, stdout) = (std::io::stdin().lock(), std::io::stdout());
                answer_lines(stdin, stdout, &cell, &ctl_tx, &stop, &telemetry);
            })
            .map_err(|e| e.to_string())?;
    }
    // The server's own senders die here; with no socket listener, stdin
    // EOF therefore shuts the engine loop down.
    drop(ctl_tx);

    // Every listener is up and the boot snapshot is in the cell: the
    // daemon is ready. The flip happens exactly once for the process
    // lifetime (later engine publishes hit the already-set flag).
    telemetry.on_publish(cell.read(|snap| snap.epoch));

    engine_thread.join().map_err(|_| "engine thread panicked".to_string())?;
    stop.store(true, Ordering::Relaxed);
    // Give connection threads a beat to flush the shutdown reply before
    // the process (and its blocked accept/stdin threads) goes away.
    thread::sleep(Duration::from_millis(100));
    if let Some(path) = &opts.socket {
        let _ = std::fs::remove_file(path);
    }
    Ok(())
}

fn bind_socket(path: &Path) -> Result<UnixListener, String> {
    if path.exists() {
        std::fs::remove_file(path).map_err(|e| format!("remove stale socket: {e}"))?;
    }
    UnixListener::bind(path).map_err(|e| format!("bind {}: {e}", path.display()))
}

/// Accepts socket connections until shutdown and answers each with
/// [`answer_lines`] on a thread of its own.
fn accept_loop(
    listener: UnixListener,
    cell: Arc<SnapshotCell>,
    ctl_tx: Sender<Control>,
    stop: Arc<AtomicBool>,
    telemetry: Arc<Telemetry>,
) {
    let conn_stop = Arc::clone(&stop);
    accept_capped(
        listener.incoming(),
        "daas-serve-conn",
        &stop,
        |mut stream| {
            let busy = error_response(&format!("busy: {MAX_CONNECTIONS} connections open"));
            let _ = writeln!(stream, "{busy}");
        },
        move |stream: UnixStream| {
            let Ok(read_half) = stream.try_clone() else { return };
            answer_lines(BufReader::new(read_half), stream, &cell, &ctl_tx, &conn_stop, &telemetry);
        },
    );
}

/// The accept loop every listener shares: until `stop`, answers each
/// connection on a thread of its own, so an idle or slow client never
/// holds up another. Past [`MAX_CONNECTIONS`] open connections of this
/// listener, `refuse` answers a new one on the accept thread and it is
/// closed.
pub(crate) fn accept_capped<S: Send + 'static>(
    incoming: impl Iterator<Item = std::io::Result<S>>,
    thread_name: &str,
    stop: &AtomicBool,
    refuse: impl Fn(S),
    answer: impl Fn(S) + Send + Sync + 'static,
) {
    // Each connection thread holds a clone of `answer` until it ends,
    // however it ends: the open connections are the clones beyond this
    // one.
    let answer = Arc::new(answer);
    for conn in incoming {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let conn = match conn {
            Ok(conn) => conn,
            // Out of file descriptors, say: back off instead of spinning.
            Err(_) => {
                thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        // Only this thread opens connections, so the count cannot grow
        // between the check and the clone.
        if Arc::strong_count(&answer) > MAX_CONNECTIONS {
            refuse(conn);
            continue;
        }
        let answer = Arc::clone(&answer);
        // A failed spawn drops the closure, which closes the connection
        // and frees the slot.
        let _ = thread::Builder::new().name(thread_name.into()).spawn(move || answer(conn));
    }
}

/// Parses one line and answers it: live-telemetry queries from the
/// telemetry state, snapshot queries from the snapshot cell, control
/// commands via the engine channel. The parse of a snapshot query is
/// timed as `serve.query_stage_ms{stage=parse}`; no other request
/// records it.
fn dispatch(
    line: &str,
    cell: &SnapshotCell,
    ctl_tx: &Sender<Control>,
    telemetry: &Telemetry,
) -> String {
    let mut clock = QueryClock::start();
    let req = match Request::parse(line) {
        Ok(req) => req,
        Err(e) => return error_response(&e),
    };
    if req.is_query() {
        clock.lap("parse");
    }
    if let Some(reply) = answer_live(&req, cell, telemetry) {
        return reply;
    }
    if let Some(reply) = answer_query(&cell.load(), &req) {
        return reply;
    }
    let (reply_tx, reply_rx) = channel();
    if ctl_tx.send(Control { req, reply: reply_tx }).is_err() {
        return error_response("engine is shut down");
    }
    reply_rx.recv().unwrap_or_else(|_| error_response("engine is shut down"))
}

/// Answers the `obs` and `events` live-telemetry queries; `None` for
/// every other command. Deliberately records **nothing** into the
/// metrics registry — end-of-run summaries must not observe that a
/// telemetry query happened.
pub fn answer_live(req: &Request, cell: &SnapshotCell, telemetry: &Telemetry) -> Option<String> {
    match req.cmd.as_str() {
        "obs" => {
            let (worst, outcomes) = telemetry.evaluate_slo(cell);
            let metrics = telemetry.augmented_snapshot(cell);
            let scrape = match telemetry.scrape_addr() {
                Some(addr) => format!("\"{addr}\""),
                None => "null".into(),
            };
            Some(format!(
                "{{\"ok\":true,\"ready\":{},\"engine_alive\":{},\"uptime_ms\":{},\
                 \"epoch\":{},\"snapshot_age_ms\":{},\"ingest_lag_windows\":{},\
                 \"heartbeat_age_ms\":{},\"scrape_addr\":{scrape},\
                 \"slo\":{{\"worst\":\"{}\",\"outcomes\":{outcomes}}},\
                 \"rates_per_s\":{},\"metrics\":{}}}",
                telemetry.ready(),
                telemetry.engine_alive(),
                telemetry.elapsed_ms(),
                telemetry.epoch(),
                telemetry.snapshot_age_ms(),
                telemetry.lag_windows(cell),
                telemetry.heartbeat_age_ms(),
                worst.name(),
                telemetry.rolling_rates_json(),
                daas_obs::metrics_json(&metrics),
            ))
        }
        "events" => {
            let since = req.since.unwrap_or(0);
            let limit = req.limit.unwrap_or(256);
            let (events, dropped) = telemetry.events_since(since, limit);
            let mut body = String::with_capacity(64 + events.len() * 96);
            body.push_str("{\"ok\":true,\"dropped\":");
            body.push_str(&dropped.to_string());
            body.push_str(",\"count\":");
            body.push_str(&events.len().to_string());
            body.push_str(",\"events\":[");
            for (i, event) in events.iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                body.push_str(&event.to_json());
            }
            body.push_str("]}");
            Some(body)
        }
        _ => None,
    }
}

/// Answers one connection (a socket client, or stdin/stdout) line by
/// line until end of input, a failed write or shutdown. A line longer
/// than [`MAX_REQUEST_LINE`] gets one error reply and ends the
/// connection.
fn answer_lines(
    mut reader: impl BufRead,
    mut writer: impl Write,
    cell: &SnapshotCell,
    ctl_tx: &Sender<Control>,
    stop: &AtomicBool,
    telemetry: &Telemetry,
) {
    loop {
        let (reply, close) = match read_request_line(&mut reader) {
            Ok(RequestLine::Line(line)) if line.trim().is_empty() => continue,
            Ok(RequestLine::Line(line)) => (dispatch(&line, cell, ctl_tx, telemetry), false),
            Ok(RequestLine::TooLong) => (
                error_response(&format!("request line exceeds {MAX_REQUEST_LINE} bytes")),
                true,
            ),
            Ok(RequestLine::Eof) | Err(_) => break,
        };
        if writeln!(writer, "{reply}").and_then(|_| writer.flush()).is_err()
            || close
            || stop.load(Ordering::Relaxed)
        {
            break;
        }
    }
}

fn engine_loop(
    mut engine: Engine,
    ctl_rx: Receiver<Control>,
    default_window: u64,
    measure: &MeasureConfig,
    stop: &AtomicBool,
    telemetry: &Telemetry,
) {
    // The liveness watchdog's ground truth: the guard flips
    // `engine_alive` off when this frame unwinds — clean break *or*
    // panic inside a control handler.
    struct AliveGuard<'a>(&'a Telemetry);
    impl Drop for AliveGuard<'_> {
        fn drop(&mut self) {
            self.0.engine_exited();
        }
    }
    let _alive = AliveGuard(telemetry);
    loop {
        match ctl_rx.recv_timeout(SAMPLE_EVERY) {
            Ok(Control { req, reply }) => {
                telemetry.touch();
                let (line, shutdown) = handle_control(&mut engine, &req, default_window, measure);
                if req.cmd == "checkpoint" {
                    if let Some(path) = &req.path {
                        let mut event = String::from("{\"path\":");
                        escape_into(&mut event, path);
                        let ok = line.starts_with("{\"ok\":true");
                        let _ = write!(event, ",\"ok\":{ok},\"epoch\":{}}}", engine.epoch());
                        telemetry.record("checkpoint", event);
                    }
                }
                telemetry.touch();
                if shutdown {
                    stop.store(true, Ordering::Relaxed);
                }
                let _ = reply.send(line);
                if shutdown {
                    break;
                }
            }
            // Idle heartbeat: the watchdog can tell "engine busy in a
            // long command" (stale heartbeat, alive) from "engine gone"
            // (alive flag off).
            Err(RecvTimeoutError::Timeout) => telemetry.touch(),
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
}

/// Executes one control command against the engine. Returns the reply
/// line and whether the daemon should shut down.
pub fn handle_control(
    engine: &mut Engine,
    req: &Request,
    default_window: u64,
    measure: &MeasureConfig,
) -> (String, bool) {
    match req.cmd.as_str() {
        "ingest" => {
            let window = req.blocks.unwrap_or(default_window);
            match engine.ingest_window(window) {
                Some(stats) => (
                    format!(
                        "{{\"ok\":true,\"window\":{},\"first_block\":{},\"last_block\":{},\
                         \"watermark\":{},\"epoch\":{},\"new_ps_txs\":{},\"families\":{},\
                         \"done\":{}}}",
                        stats.index,
                        stats.first_block,
                        stats.last_block,
                        stats.watermark,
                        engine.epoch(),
                        stats.new_ps_txs,
                        stats.families,
                        engine.done(),
                    ),
                    false,
                ),
                None => {
                    engine.finish_stream();
                    (
                        format!(
                            "{{\"ok\":true,\"done\":true,\"watermark\":{},\"epoch\":{}}}",
                            engine.watermark(),
                            engine.epoch(),
                        ),
                        false,
                    )
                }
            }
        }
        "run" => {
            let window = req.window.or(req.blocks).unwrap_or(default_window);
            let windows = engine.run_to_end(window, |_| {});
            (
                format!(
                    "{{\"ok\":true,\"windows\":{},\"watermark\":{},\"epoch\":{},\"done\":true}}",
                    windows.len(),
                    engine.watermark(),
                    engine.epoch(),
                ),
                false,
            )
        }
        "reports" => {
            let reports = engine.reports(measure);
            match serde_json::to_string(&reports) {
                Ok(json) => (
                    format!("{{\"ok\":true,\"epoch\":{},\"reports\":{json}}}", engine.epoch()),
                    false,
                ),
                Err(e) => (error_response(&e.to_string()), false),
            }
        }
        "artifact" => {
            // The batch-comparable artifact is defined at stream end;
            // finishing first is idempotent. It carries exactly the
            // fields the live-vs-batch equivalence contract compares
            // (DESIGN.md §10): the dataset's role sets and transaction
            // set (not stream-order bookkeeping like `observations` or
            // the seed-stage counts), the clustering and the reports.
            engine.finish_stream();
            let dataset = engine.dataset().clone();
            let clustering = engine.clustering();
            let reports = engine.reports(measure);
            let parts = (
                serde_json::to_string(&dataset.contracts),
                serde_json::to_string(&dataset.operators),
                serde_json::to_string(&dataset.affiliates),
                serde_json::to_string(&dataset.ps_txs),
                serde_json::to_string(&clustering),
                serde_json::to_string(&reports),
            );
            match parts {
                (Ok(co), Ok(op), Ok(af), Ok(tx), Ok(c), Ok(r)) => (
                    format!(
                        "{{\"ok\":true,\"epoch\":{},\"artifact\":{{\"contracts\":{co},\
                         \"operators\":{op},\"affiliates\":{af},\"ps_txs\":{tx},\
                         \"clustering\":{c},\"reports\":{r}}}}}",
                        engine.epoch(),
                    ),
                    false,
                ),
                (co, op, af, tx, c, r) => {
                    let e = [co.err(), op.err(), af.err(), tx.err(), c.err(), r.err()]
                        .into_iter()
                        .flatten()
                        .next()
                        .map(|e| e.to_string())
                        .unwrap_or_default();
                    (error_response(&e), false)
                }
            }
        }
        "checkpoint" => match &req.path {
            Some(path) => {
                let ckpt = engine.checkpoint();
                match ckpt.save(Path::new(path)) {
                    Ok(bytes) => {
                        let mut line = String::from("{\"ok\":true,\"path\":");
                        escape_into(&mut line, path);
                        let _ = write!(
                            line,
                            ",\"bytes\":{bytes},\"epoch\":{},\"watermark\":{}}}",
                            engine.epoch(),
                            engine.watermark(),
                        );
                        (line, false)
                    }
                    Err(e) => (error_response(&e), false),
                }
            }
            None => (error_response("checkpoint needs \"path\""), false),
        },
        "shutdown" => (
            format!("{{\"ok\":true,\"shutdown\":true,\"epoch\":{}}}", engine.epoch()),
            true,
        ),
        other => (error_response(&format!("unknown command {other:?}")), false),
    }
}
