//! Every socket connection is answered on a thread of its own: clients
//! that connect and stay silent never hold up another client, and past
//! the connection cap a new client gets a `busy` line and a close
//! instead of an unanswered wait.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

const MAX_CONNECTIONS: usize = 64;
const BUSY: &str = "{\"ok\":false,\"error\":\"busy: 64 connections open\"}";
const STATUS: &str = "{\"cmd\":\"status\"}";

/// A daemon on a micro world, killed when dropped so a failed
/// assertion does not leave it running.
struct Daemon {
    child: Child,
    dir: PathBuf,
    socket: PathBuf,
}

impl Daemon {
    fn spawn(name: &str) -> Daemon {
        let dir = std::env::temp_dir().join(format!("daas_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let socket = dir.join("serve.sock");
        let child = Command::new(env!("CARGO_BIN_EXE_daas-serve"))
            .args(["--preset", "micro", "--seed", "42", "--socket", socket.to_str().unwrap()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn daas-serve");
        Daemon { child, dir, socket }
    }

    /// Sends `shutdown` on `conn` and waits for a clean exit.
    fn shut_down(mut self, conn: &UnixStream) {
        let reply = request(conn, "{\"cmd\":\"shutdown\"}").expect("shutdown reply");
        assert!(reply.contains("\"shutdown\":true"), "{reply}");
        assert!(self.child.wait().expect("daemon exits").success());
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Connects once the daemon is up; a reply that takes longer than 10 s
/// counts as never sent.
fn connect(socket: &Path) -> UnixStream {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if let Ok(stream) = UnixStream::connect(socket) {
            stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
            return stream;
        }
        assert!(Instant::now() < deadline, "daemon did not come up on {socket:?}");
        thread::sleep(Duration::from_millis(50));
    }
}

fn request(stream: &UnixStream, line: &str) -> std::io::Result<String> {
    writeln!(&*stream, "{line}")?;
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply)?;
    Ok(reply)
}

#[test]
fn idle_connections_do_not_stall_other_clients() {
    let daemon = Daemon::spawn("idle_conns");
    let idle = [connect(&daemon.socket), connect(&daemon.socket)];
    let client = connect(&daemon.socket);
    let reply = request(&client, STATUS).expect("status answered while two clients sit idle");
    assert!(reply.contains("\"ok\":true"), "{reply}");
    drop(idle);
    daemon.shut_down(&client);
}

#[test]
fn connections_past_the_cap_get_busy_until_one_closes() {
    let daemon = Daemon::spawn("conn_cap");
    let mut open: Vec<UnixStream> =
        (0..MAX_CONNECTIONS).map(|_| connect(&daemon.socket)).collect();
    // An answered status proves the connection holds one of the slots.
    for conn in &open {
        let reply = request(conn, STATUS).expect("status");
        assert!(reply.contains("\"ok\":true"), "{reply}");
    }

    let extra = connect(&daemon.socket);
    let mut reader = BufReader::new(&extra);
    let mut line = String::new();
    reader.read_line(&mut line).expect("busy line");
    assert_eq!(line.trim_end(), BUSY);
    line.clear();
    assert_eq!(reader.read_line(&mut line).expect("close"), 0, "left open: {line:?}");

    // Closing one connection frees its slot; the daemon notices when
    // that connection's thread sees EOF, so retry briefly.
    drop(open.pop());
    let deadline = Instant::now() + Duration::from_secs(60);
    let client = loop {
        let client = connect(&daemon.socket);
        match request(&client, STATUS) {
            Ok(reply) if reply.contains("\"ok\":true") => break client,
            Ok(reply) => assert_eq!(reply.trim_end(), BUSY),
            // Closed before the request went out.
            Err(_) => {}
        }
        assert!(Instant::now() < deadline, "no slot freed after a connection closed");
        thread::sleep(Duration::from_millis(20));
    };
    daemon.shut_down(&client);
}
