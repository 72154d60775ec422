//! The Prometheus scrape listener: a std-only TCP server (no async,
//! matching the server's thread-per-listener style) answering
//!
//! * `GET /metrics` — the live registry snapshot plus the computed
//!   operational gauges, rendered by `daas_obs::prometheus_text`;
//! * `GET /healthz` — 200 while the engine thread is alive and no SLO
//!   is violated, 503 otherwise, with a JSON body carrying the worst
//!   verdict and every outcome;
//! * `GET /readyz` — 503 until the first snapshot publication, 200
//!   (forever) after.
//!
//! Each connection is answered on a thread of its own, at most
//! [`MAX_CONNECTIONS`](crate::server::MAX_CONNECTIONS) at once (one more
//! gets a 503), and has [`REQUEST_DEADLINE`] in total to deliver its
//! request line and headers before it is closed, so a slow client never
//! holds up another. A request or header line longer than
//! [`MAX_REQUEST_LINE`](crate::protocol::MAX_REQUEST_LINE) gets a 431
//! and the connection closes.
//!
//! Every response is answered from the non-destructive snapshot path
//! and the telemetry atomics: a scrape can never block the engine
//! thread, and — because nothing on this path writes into the metrics
//! registry — cannot perturb drained end-of-run artifacts.

use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use daas_obs::SloVerdict;

use crate::protocol::{read_request_line, RequestLine, MAX_REQUEST_LINE};
use crate::server::{accept_capped, MAX_CONNECTIONS};
use crate::snapshot::SnapshotCell;
use crate::telemetry::Telemetry;

/// How long a connection has to deliver its whole request: the request
/// line and every header line.
const REQUEST_DEADLINE: Duration = Duration::from_secs(5);

/// Binds `addr` (port 0 picks a free port), publishes the bound address
/// into the telemetry, and spawns the accept thread. Returns the bound
/// address.
pub fn spawn_scrape(
    addr: SocketAddr,
    telemetry: Arc<Telemetry>,
    cell: Arc<SnapshotCell>,
    stop: Arc<AtomicBool>,
) -> Result<SocketAddr, String> {
    let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let bound = listener.local_addr().map_err(|e| e.to_string())?;
    telemetry.set_scrape_addr(bound);
    thread::Builder::new()
        .name("daas-serve-scrape".into())
        .spawn(move || {
            accept_capped(
                listener.incoming(),
                "daas-serve-scrape-conn",
                &stop,
                |stream| {
                    let body = format!("busy: {MAX_CONNECTIONS} connections open\n");
                    respond(stream, "503 Service Unavailable", "text/plain", &body);
                },
                move |stream| handle_scrape(stream, &telemetry, &cell),
            )
        })
        .map_err(|e| e.to_string())?;
    Ok(bound)
}

/// A connection's read half whose every read waits only until the
/// request's deadline, so dripping bytes cannot keep it open longer.
struct DeadlineReader {
    stream: TcpStream,
    deadline: Instant,
}

impl Read for DeadlineReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "request deadline passed"));
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

/// Reads one HTTP/1.x request and writes one `Connection: close`
/// response. Only `GET` with the three known paths is served.
fn handle_scrape(stream: TcpStream, telemetry: &Telemetry, cell: &SnapshotCell) {
    let Ok(read_half) = stream.try_clone() else { return };
    let deadline = Instant::now() + REQUEST_DEADLINE;
    let mut reader = BufReader::new(DeadlineReader { stream: read_half, deadline });
    // The request line, then the headers, drained so well-behaved
    // clients see a clean close; `None` once a line is over the cap.
    let mut request_line = None;
    loop {
        match read_request_line(&mut reader) {
            Ok(RequestLine::Line(line)) if request_line.is_none() => request_line = Some(line),
            Ok(RequestLine::Line(header)) if header.is_empty() => break,
            Ok(RequestLine::Line(_)) => continue,
            Ok(RequestLine::TooLong) => {
                request_line = None;
                break;
            }
            Ok(RequestLine::Eof) if request_line.is_some() => break,
            Ok(RequestLine::Eof) | Err(_) => return,
        }
    }
    let Some(request_line) = request_line else {
        let body = format!("request line exceeds {MAX_REQUEST_LINE} bytes\n");
        respond(stream, "431 Request Header Fields Too Large", "text/plain", &body);
        return;
    };
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, content_type, body) = if method != "GET" {
        ("405 Method Not Allowed", "text/plain", "only GET is served\n".to_string())
    } else {
        match path {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4",
                daas_obs::prometheus_text(&telemetry.augmented_snapshot(cell)),
            ),
            "/healthz" => {
                let (worst, outcomes) = telemetry.evaluate_slo(cell);
                let alive = telemetry.engine_alive();
                let healthy = alive && worst != SloVerdict::Violated;
                let status = if healthy { "200 OK" } else { "503 Service Unavailable" };
                let body = format!(
                    "{{\"status\":\"{}\",\"engine_alive\":{},\"heartbeat_age_ms\":{},\
                     \"worst\":\"{}\",\"outcomes\":{}}}\n",
                    if !alive {
                        "dead"
                    } else {
                        worst.name()
                    },
                    alive,
                    telemetry.heartbeat_age_ms(),
                    worst.name(),
                    outcomes,
                );
                (status, "application/json", body)
            }
            "/readyz" => {
                let ready = telemetry.ready();
                let status = if ready { "200 OK" } else { "503 Service Unavailable" };
                let body = format!(
                    "{{\"ready\":{},\"epoch\":{},\"uptime_ms\":{}}}\n",
                    ready,
                    telemetry.epoch(),
                    telemetry.elapsed_ms(),
                );
                (status, "application/json", body)
            }
            _ => ("404 Not Found", "text/plain", format!("no route {path}\n")),
        }
    };
    respond(stream, status, content_type, &body);
}

/// Writes the whole response in one call: after a 431 the connection
/// closes with request bytes unread, which resets it, and any part of
/// the response still held back by Nagle's algorithm would be lost.
fn respond(mut stream: TcpStream, status: &str, content_type: &str, body: &str) {
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::Snapshot;
    use daas_obs::SloSpec;
    use std::io::ErrorKind;
    use std::sync::atomic::Ordering;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").unwrap();
        let status = head.lines().next().unwrap().to_string();
        (status, body.to_string())
    }

    #[test]
    fn scrape_endpoints_serve_metrics_health_and_readiness() {
        let telemetry = Arc::new(Telemetry::new(SloSpec::serve_defaults(), 64));
        let cell = Arc::new(SnapshotCell::new(Snapshot::empty(128)));
        let stop = Arc::new(AtomicBool::new(false));
        let addr = spawn_scrape(
            "127.0.0.1:0".parse().unwrap(),
            Arc::clone(&telemetry),
            Arc::clone(&cell),
            Arc::clone(&stop),
        )
        .unwrap();
        assert_eq!(telemetry.scrape_addr(), Some(addr));

        // Not ready until the first publish.
        let (status, body) = get(addr, "/readyz");
        assert!(status.contains("503"), "{status}");
        assert!(body.contains("\"ready\":false"), "{body}");

        telemetry.on_publish(1);
        let (status, body) = get(addr, "/readyz");
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("\"ready\":true"), "{body}");

        // Metrics carry the computed gauges even with the recorder off.
        let (status, body) = get(addr, "/metrics");
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("daas_serve_snapshot_age_ms"), "{body}");
        assert!(body.contains("daas_serve_ingest_lag_windows 2"), "{body}");

        // Healthy while the engine lives and nothing is violated.
        let (status, body) = get(addr, "/healthz");
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("\"engine_alive\":true"), "{body}");

        // Engine death flips health to 503/dead; readiness is sticky.
        telemetry.engine_exited();
        let (status, body) = get(addr, "/healthz");
        assert!(status.contains("503"), "{status}");
        assert!(body.contains("\"status\":\"dead\""), "{body}");
        let (status, _) = get(addr, "/readyz");
        assert!(status.contains("200"), "ready never un-flips");

        let (status, _) = get(addr, "/nope");
        assert!(status.contains("404"), "{status}");
        stop.store(true, Ordering::Relaxed);
        let _ = TcpStream::connect(addr); // unblock the accept loop
    }

    /// A listener on a free port over an empty, already published
    /// snapshot; store `true` into the flag and connect once to stop it.
    fn ready_listener() -> (SocketAddr, Arc<AtomicBool>) {
        let telemetry = Arc::new(Telemetry::new(SloSpec::serve_defaults(), 64));
        telemetry.on_publish(1);
        let cell = Arc::new(SnapshotCell::new(Snapshot::empty(128)));
        let stop = Arc::new(AtomicBool::new(false));
        let addr = spawn_scrape("127.0.0.1:0".parse().unwrap(), telemetry, cell, Arc::clone(&stop))
            .unwrap();
        (addr, stop)
    }

    #[test]
    fn a_dripping_client_blocks_no_one_and_is_cut_off_at_its_deadline() {
        let (addr, stop) = ready_listener();
        let mut drip = TcpStream::connect(addr).unwrap();
        let started = Instant::now();
        write!(drip, "GET /metrics HTTP/1.1\r\n").unwrap();
        let mut writer = drip.try_clone().unwrap();
        let dripper = thread::spawn(move || {
            // One header line a second: each read is quick, the request
            // never ends.
            while started.elapsed() < Duration::from_secs(15) {
                thread::sleep(Duration::from_secs(1));
                if write!(writer, "X-Drip: 1\r\n").is_err() {
                    break;
                }
            }
        });

        for _ in 0..3 {
            let asked = Instant::now();
            let mut ready = TcpStream::connect(addr).unwrap();
            ready.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            write!(ready, "GET /readyz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            let mut response = String::new();
            ready.read_to_string(&mut response).expect("/readyz answers within 2 s");
            assert!(response.starts_with("HTTP/1.1 200"), "{response}");
            assert!(asked.elapsed() < Duration::from_secs(2));
        }

        // Closed: EOF, or a reset because drip lines went unread.
        drip.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        match drip.read_to_end(&mut Vec::new()) {
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
            Err(e) => panic!("the drip connection is still open: {e}"),
        }
        let open_for = started.elapsed();
        assert!(open_for >= REQUEST_DEADLINE - Duration::from_millis(100), "{open_for:?}");
        assert!(open_for < REQUEST_DEADLINE + Duration::from_secs(3), "{open_for:?}");
        dripper.join().unwrap();
        stop.store(true, Ordering::Relaxed);
        let _ = TcpStream::connect(addr);
    }

    #[test]
    fn past_the_connection_cap_a_scrape_gets_503() {
        let (addr, stop) = ready_listener();
        let silent: Vec<TcpStream> =
            (0..MAX_CONNECTIONS).map(|_| TcpStream::connect(addr).unwrap()).collect();
        let mut refused = TcpStream::connect(addr).unwrap();
        refused.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut response = String::new();
        refused.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 503"), "{response}");
        assert!(response.ends_with("busy: 64 connections open\n"), "{response}");

        // Closing the silent clients frees their slots.
        drop(silent);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            // A refused request's 503 may be cut off by a reset, since
            // the request goes unread.
            let mut stream = TcpStream::connect(addr).unwrap();
            let mut response = String::new();
            let answered = write!(stream, "GET /readyz HTTP/1.1\r\n\r\n")
                .and_then(|()| stream.read_to_string(&mut response));
            if answered.is_ok() && response.starts_with("HTTP/1.1 200") {
                break;
            }
            assert!(Instant::now() < deadline, "slots never freed: {response}");
            thread::sleep(Duration::from_millis(20));
        }
        stop.store(true, Ordering::Relaxed);
        let _ = TcpStream::connect(addr);
    }
}
