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
//! A request or header line longer than
//! [`MAX_REQUEST_LINE`](crate::protocol::MAX_REQUEST_LINE) gets a 431
//! and the connection closes.
//!
//! Every response is answered from the non-destructive snapshot path
//! and the telemetry atomics: a scrape can never block the engine
//! thread, and — because nothing on this path writes into the metrics
//! registry — cannot perturb drained end-of-run artifacts.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use daas_obs::SloVerdict;

use crate::protocol::{read_request_line, RequestLine, MAX_REQUEST_LINE};
use crate::snapshot::SnapshotCell;
use crate::telemetry::Telemetry;

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
            for conn in listener.incoming() {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
                handle_scrape(stream, &telemetry, &cell);
            }
        })
        .map_err(|e| e.to_string())?;
    Ok(bound)
}

/// Reads one HTTP/1.x request and writes one `Connection: close`
/// response. Only `GET` with the three known paths is served.
fn handle_scrape(stream: TcpStream, telemetry: &Telemetry, cell: &SnapshotCell) {
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
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
    use std::io::Read;

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
}
