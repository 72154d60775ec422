//! Live-telemetry integration: a real daemon process on a micro world
//! with the scrape listener up. Covers the PR-10 contracts end to end:
//! scrape-while-ingesting returns consistent (never torn) histograms,
//! readiness flips exactly once, a scrape during checkpoint/restore
//! never blocks the engine, and the `obs` query validates against
//! `schemas/obs_snapshot.schema.json`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use daas_obs::json::{parse, validate_schema, Value};

struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    fn open(socket: &Path) -> Conn {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            if let Ok(stream) = UnixStream::connect(socket) {
                let reader = BufReader::new(stream.try_clone().expect("clone"));
                return Conn { reader, writer: stream };
            }
            assert!(Instant::now() < deadline, "daemon did not come up on {socket:?}");
            thread::sleep(Duration::from_millis(50));
        }
    }

    fn send(&mut self, request: &str) -> String {
        writeln!(self.writer, "{request}").expect("send");
        self.writer.flush().expect("flush");
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv");
        assert!(n > 0, "daemon closed the connection after {request:?}");
        assert!(line.contains("\"ok\":true"), "request {request:?} failed: {line}");
        line
    }
}

fn spawn_daemon(args: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_daas-serve"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn daas-serve")
}

/// One HTTP/1.1 GET against the scrape listener; returns (status line,
/// body).
fn http_get(addr: &str, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect scrape");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: daas\r\n\r\n").expect("request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response");
    let (head, body) = response.split_once("\r\n\r\n").expect("header/body split");
    (head.lines().next().unwrap_or("").to_string(), body.to_string())
}

fn obs_schema() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../schemas/obs_snapshot.schema.json");
    parse(&std::fs::read_to_string(path).expect("schema file")).expect("schema JSON")
}

/// Asserts every histogram in a Prometheus exposition is internally
/// consistent: the `+Inf` cumulative bucket equals the `_count` series.
/// A torn snapshot merge would break exactly this invariant.
fn assert_untorn(prom: &str) {
    let mut inf: Vec<(String, u64)> = Vec::new();
    let mut counts: Vec<(String, u64)> = Vec::new();
    for line in prom.lines() {
        if line.starts_with('#') {
            continue;
        }
        let Some((series, value)) = line.rsplit_once(' ') else { continue };
        if let Some(at) = series.find("_bucket{") {
            if series.contains("le=\"+Inf\"") {
                let labels: String = series[at + 8..]
                    .replace("le=\"+Inf\"", "")
                    .trim_matches([',', '}'])
                    .to_string();
                inf.push((format!("{}{{{labels}", &series[..at]), value.parse().unwrap()));
            }
        } else if let Some(name) = series.split('{').next() {
            if name.ends_with("_count") {
                let labels =
                    series.split_once('{').map(|(_, l)| l.trim_end_matches('}')).unwrap_or("");
                let base = name.trim_end_matches("_count");
                counts.push((format!("{base}{{{labels}"), value.parse().unwrap()));
            }
        }
    }
    assert!(!counts.is_empty() || !inf.is_empty() || !prom.contains("histogram"));
    for (key, count) in &counts {
        let Some((_, cumulative)) = inf.iter().find(|(k, _)| k == key) else {
            panic!("histogram {key} has _count but no +Inf bucket:\n{prom}");
        };
        assert_eq!(
            cumulative, count,
            "torn histogram {key}: +Inf cumulative {cumulative} != count {count}"
        );
    }
}

fn field_str<'a>(obj: &'a Value, key: &str) -> &'a str {
    obj.as_obj().unwrap()[key].as_str().unwrap()
}

#[test]
fn live_daemon_scrapes_cleanly_through_ingest_checkpoint_and_restore() {
    let dir = std::env::temp_dir().join(format!("daas_telemetry_live_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let sock = dir.join("serve.sock");
    let ckpt = dir.join("engine.ckpt.json");
    let schema = obs_schema();

    let mut daemon = spawn_daemon(&[
        "--preset", "micro", "--seed", "42", "--window", "20",
        "--socket", sock.to_str().unwrap(),
        "--scrape-addr", "127.0.0.1:0",
    ]);
    let mut ctl = Conn::open(&sock);

    // The obs query is the port-discovery channel for --scrape-addr :0,
    // and must validate against the checked-in schema.
    let obs = ctl.send("{\"cmd\":\"obs\"}");
    let doc = parse(obs.trim()).expect("obs JSON");
    let errors = validate_schema(&schema, &doc);
    assert!(errors.is_empty(), "obs response violates schema: {errors:?}\n{obs}");
    let scrape_addr = field_str(&doc, "scrape_addr").to_string();

    // Wait for readiness (flips once the serve loop is fully up).
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, body) = http_get(&scrape_addr, "/readyz");
        if status.contains("200") {
            assert!(body.contains("\"ready\":true"), "{body}");
            break;
        }
        assert!(Instant::now() < deadline, "daemon never became ready");
        thread::sleep(Duration::from_millis(20));
    }

    // Hammer /metrics and /healthz from two threads for the rest of the
    // run: every exposition must be internally consistent (no torn
    // histograms) no matter what the engine is doing.
    let stop = Arc::new(AtomicBool::new(false));
    let scrapes = Arc::new(AtomicUsize::new(0));
    let mut scrapers = Vec::new();
    for _ in 0..2 {
        let stop = Arc::clone(&stop);
        let scrapes = Arc::clone(&scrapes);
        let addr = scrape_addr.clone();
        scrapers.push(thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let (status, body) = http_get(&addr, "/metrics");
                assert!(status.contains("200"), "{status}");
                assert_untorn(&body);
                let (_, health) = http_get(&addr, "/healthz");
                assert!(health.contains("\"engine_alive\":true"), "{health}");
                scrapes.fetch_add(1, Ordering::Relaxed);
            }
        }));
    }

    // Ingest the whole chain window by window under scrape load.
    let mut windows = 0u32;
    loop {
        let reply = ctl.send("{\"cmd\":\"ingest\"}");
        if reply.contains("\"done\":true") {
            break;
        }
        windows += 1;
        assert!(windows < 10_000, "ingest never finished");
    }
    assert!(windows >= 2, "micro world should span multiple windows at --window 20");

    // Checkpoint while scrapers hammer: the engine must not be blocked
    // by the read path (generous deadline only as a hang backstop).
    let before = scrapes.load(Ordering::Relaxed);
    let t0 = Instant::now();
    let reply = ctl.send(&format!("{{\"cmd\":\"checkpoint\",\"path\":\"{}\"}}", ckpt.display()));
    assert!(reply.contains("\"ok\":true"), "{reply}");
    assert!(t0.elapsed() < Duration::from_secs(60), "checkpoint stalled under scrape load");
    let deadline = Instant::now() + Duration::from_secs(30);
    while scrapes.load(Ordering::Relaxed) <= before {
        assert!(Instant::now() < deadline, "scrapes stopped during checkpoint");
        thread::sleep(Duration::from_millis(10));
    }

    // A couple of data queries so serve.query_ms has endpoints, then a
    // final consistent scrape that must carry the contract metrics.
    ctl.send("{\"cmd\":\"status\"}");
    ctl.send("{\"cmd\":\"stats\"}");
    let (status, body) = http_get(&scrape_addr, "/metrics");
    assert!(status.contains("200"));
    assert!(body.contains("daas_serve_snapshot_age_ms"), "missing age gauge:\n{body}");
    assert!(body.contains("daas_serve_ingest_lag_windows 0"), "lag should be 0 when done");
    assert!(body.contains("daas_serve_query_ms_bucket{endpoint=\"status\""), "{body}");
    for stage in ["parse", "answer", "write"] {
        let bucket = format!("daas_serve_query_stage_ms_bucket{{stage=\"{stage}\"");
        assert!(body.contains(&bucket), "{bucket} missing:\n{body}");
    }
    assert_untorn(&body);

    // The journal tells the readiness story: exactly one ready flip,
    // one start, one checkpoint, and a publish per subsequent window.
    let events = ctl.send("{\"cmd\":\"events\",\"since\":0,\"limit\":2048}");
    let doc = parse(events.trim()).expect("events JSON");
    let list = doc.as_obj().unwrap()["events"].as_arr().unwrap();
    let kind_count = |kind: &str| {
        list.iter().filter(|e| e.as_obj().unwrap()["kind"].as_str() == Some(kind)).count()
    };
    assert_eq!(kind_count("ready"), 1, "readiness must flip exactly once: {events}");
    assert_eq!(kind_count("start"), 1);
    assert_eq!(kind_count("checkpoint"), 1);
    assert!(kind_count("publish") >= windows as usize - 1, "{events}");

    // Final obs: still schema-valid, done, epoch advanced.
    let obs = ctl.send("{\"cmd\":\"obs\"}");
    let doc = parse(obs.trim()).expect("obs JSON");
    assert!(validate_schema(&schema, &doc).is_empty());
    let obj = doc.as_obj().unwrap();
    assert_eq!(obj["ready"], Value::Bool(true));
    assert_eq!(obj["engine_alive"], Value::Bool(true));
    assert!(obj["epoch"].as_num().unwrap() >= windows as f64);
    assert_eq!(obj["ingest_lag_windows"].as_num(), Some(0.0));

    stop.store(true, Ordering::Relaxed);
    for scraper in scrapers {
        scraper.join().expect("scraper");
    }
    assert!(scrapes.load(Ordering::Relaxed) >= 10, "scrapers barely ran");
    ctl.send("{\"cmd\":\"shutdown\"}");
    assert!(daemon.wait().expect("wait").success());

    // Restore from the checkpoint: the restored daemon is ready at
    // boot, journals the restore, and scrapes immediately.
    let sock2 = dir.join("serve2.sock");
    let mut restored = spawn_daemon(&[
        "--restore", ckpt.to_str().unwrap(), "--window", "20",
        "--socket", sock2.to_str().unwrap(),
        "--scrape-addr", "127.0.0.1:0",
    ]);
    let mut ctl = Conn::open(&sock2);
    let obs = ctl.send("{\"cmd\":\"obs\"}");
    let doc = parse(obs.trim()).expect("obs JSON");
    assert!(validate_schema(&schema, &doc).is_empty());
    let addr2 = field_str(&doc, "scrape_addr").to_string();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, _) = http_get(&addr2, "/readyz");
        if status.contains("200") {
            break;
        }
        assert!(Instant::now() < deadline, "restored daemon never became ready");
        thread::sleep(Duration::from_millis(20));
    }
    let events = ctl.send("{\"cmd\":\"events\",\"since\":0,\"limit\":64}");
    assert!(events.contains("\"kind\":\"restore\""), "{events}");
    assert!(events.contains("\"restored\":true"), "{events}");
    let (status, body) = http_get(&addr2, "/metrics");
    assert!(status.contains("200"));
    assert_untorn(&body);
    ctl.send("{\"cmd\":\"shutdown\"}");
    assert!(restored.wait().expect("wait").success());

    let _ = std::fs::remove_dir_all(&dir);
}
