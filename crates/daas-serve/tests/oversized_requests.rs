//! A client that sends bytes without a newline must not grow the
//! daemon's memory: every listener reads at most `MAX_REQUEST_LINE`
//! bytes of a line, answers a longer one with an error (HTTP 431 on the
//! scrape port) and closes that connection, while other clients keep
//! being served.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

const ONE_MIB: usize = 1 << 20;
const TOO_LONG: &str = "{\"ok\":false,\"error\":\"request line exceeds 65536 bytes\"}";

fn connect(socket: &Path) -> UnixStream {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if let Ok(stream) = UnixStream::connect(socket) {
            stream.set_read_timeout(Some(Duration::from_secs(60))).expect("timeout");
            return stream;
        }
        assert!(Instant::now() < deadline, "daemon did not come up on {socket:?}");
        thread::sleep(Duration::from_millis(50));
    }
}

fn request(stream: &UnixStream, line: &str) -> String {
    writeln!(&*stream, "{line}").expect("send");
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).expect("recv");
    reply
}

/// Kills the daemon when dropped, so a failed assertion does not leave
/// it running.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Writes 1 MiB with no newline from a background thread; the daemon
/// stops reading long before the end, so the write may fail.
fn flood(mut sink: impl Write + Send + 'static, prefix: &'static str) -> thread::JoinHandle<()> {
    thread::spawn(move || {
        let _ = sink.write_all(prefix.as_bytes());
        let _ = sink.write_all(&vec![b'x'; ONE_MIB]);
    })
}

#[test]
fn oversized_lines_are_refused_without_stalling_other_clients() {
    let dir = std::env::temp_dir().join(format!("daas_oversized_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let sock = dir.join("serve.sock");
    let mut daemon = Daemon(
        Command::new(env!("CARGO_BIN_EXE_daas-serve"))
            .args(["--preset", "micro", "--seed", "42", "--socket", sock.to_str().unwrap()])
            .args(["--scrape-addr", "127.0.0.1:0"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn daas-serve"),
    );
    let good = connect(&sock);
    assert!(request(&good, "{\"cmd\":\"status\"}").contains("\"ok\":true"));

    // Socket: the flooding client gets one error line, then a close; a
    // second client's status succeeds while the flood is in flight.
    let bad = connect(&sock);
    let writer = flood(bad.try_clone().expect("clone"), "{\"cmd\":\"status\",\"pad\":\"");
    let reply = request(&good, "{\"cmd\":\"status\"}");
    assert!(reply.contains("\"ok\":true"), "{reply}");
    let mut bad_reader = BufReader::new(&bad);
    let mut line = String::new();
    bad_reader.read_line(&mut line).expect("error reply");
    assert_eq!(line.trim_end(), TOO_LONG);
    // Closed: EOF, or a reset because the rest of the flood went unread.
    line.clear();
    match bad_reader.read_line(&mut line) {
        Ok(0) => {}
        Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
        other => panic!("connection left open: {other:?} {line:?}"),
    }
    writer.join().expect("flood thread");

    // Stdin: the same error on stdout, and the socket keeps serving.
    let stdin_flood = flood(daemon.0.stdin.take().expect("stdin"), "");
    let mut stdout = BufReader::new(daemon.0.stdout.take().expect("stdout"));
    line.clear();
    stdout.read_line(&mut line).expect("stdout reply");
    assert_eq!(line.trim_end(), TOO_LONG);
    let obs = request(&good, "{\"cmd\":\"obs\"}");
    assert!(obs.contains("\"ok\":true"), "{obs}");

    // Scrape port: 431 for an oversized request line; /readyz still
    // answers afterwards.
    let addr = obs.split("\"scrape_addr\":\"").nth(1).and_then(|s| s.split('"').next());
    let addr = addr.expect("scrape_addr in obs").to_string();
    let scrape = TcpStream::connect(&addr).expect("connect scrape");
    scrape.set_read_timeout(Some(Duration::from_secs(60))).expect("timeout");
    let writer = flood(scrape.try_clone().expect("clone"), "GET /");
    let mut head = String::new();
    BufReader::new(&scrape).read_line(&mut head).expect("scrape reply");
    assert!(head.starts_with("HTTP/1.1 431"), "{head}");
    writer.join().expect("flood thread");
    let mut ready = TcpStream::connect(&addr).expect("connect scrape");
    write!(ready, "GET /readyz HTTP/1.1\r\nHost: daas\r\n\r\n").expect("request");
    let mut response = String::new();
    ready.read_to_string(&mut response).expect("response");
    assert!(response.starts_with("HTTP/1.1 "), "{response}");
    assert!(!response.starts_with("HTTP/1.1 431"), "{response}");

    assert!(request(&good, "{\"cmd\":\"shutdown\"}").contains("\"shutdown\":true"));
    assert!(daemon.0.wait().expect("daemon exits").success());
    stdin_flood.join().expect("stdin flood thread");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A line nested far deeper than the parser's 128-level limit, though
/// far shorter than `MAX_REQUEST_LINE`, gets an ordinary `bad request`
/// reply on the socket and on stdin; it does not overflow a thread's
/// stack and take the daemon down.
#[test]
fn deeply_nested_lines_get_an_error_reply() {
    let dir = std::env::temp_dir().join(format!("daas_nested_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let sock = dir.join("serve.sock");
    let mut daemon = Daemon(
        Command::new(env!("CARGO_BIN_EXE_daas-serve"))
            .args(["--preset", "micro", "--seed", "42", "--socket", sock.to_str().unwrap()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn daas-serve"),
    );
    let nested = "[".repeat(10_000);
    let bad = connect(&sock);
    let reply = request(&bad, &nested);
    assert!(reply.starts_with("{\"ok\":false,\"error\":\"bad request: "), "{reply:?}");
    assert!(reply.contains("limit of 128"), "{reply:?}");
    let good = connect(&sock);
    assert!(request(&good, "{\"cmd\":\"status\"}").contains("\"ok\":true"));

    let mut stdin = daemon.0.stdin.take().expect("stdin");
    writeln!(stdin, "{nested}").expect("send on stdin");
    let mut line = String::new();
    BufReader::new(daemon.0.stdout.take().expect("stdout")).read_line(&mut line).expect("reply");
    assert!(line.starts_with("{\"ok\":false,\"error\":\"bad request: "), "{line:?}");
    assert!(request(&bad, "{\"cmd\":\"status\"}").contains("\"ok\":true"));

    assert!(request(&good, "{\"cmd\":\"shutdown\"}").contains("\"shutdown\":true"));
    assert!(daemon.0.wait().expect("daemon exits").success());
    let _ = std::fs::remove_dir_all(&dir);
}
