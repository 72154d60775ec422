//! The CI serve gate (release, `--ignored`): a real `daas-serve`
//! process at scale 0.05 ingests half the chain, checkpoints, is
//! hard-killed, restarts from the checkpoint, finishes the stream while
//! answering ≥1000 concurrent address-risk queries from reader threads
//! — and its final artifact is byte-identical to the one-shot batch
//! pipeline run in-process.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use daas_cluster::cluster;
use daas_detector::{build_dataset_with_cache, ClassificationCache, SnowballConfig};
use daas_measure::{MeasureConfig, MeasureCtx};
use daas_world::{collection_end, World, WorldConfig};

const SEED: &str = "42";
const SCALE: &str = "0.05";
const WINDOW: &str = "720";

struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    fn open(socket: &Path) -> Conn {
        // The daemon builds a scale-0.05 world before binding; retry
        // until it is up.
        let deadline = Instant::now() + Duration::from_secs(600);
        loop {
            if let Ok(stream) = UnixStream::connect(socket) {
                let reader = BufReader::new(stream.try_clone().expect("clone"));
                return Conn { reader, writer: stream };
            }
            assert!(Instant::now() < deadline, "daemon did not come up on {socket:?}");
            thread::sleep(Duration::from_millis(200));
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

/// Extracts an integer field from a one-line JSON response.
fn field_u64(line: &str, name: &str) -> u64 {
    let key = format!("\"{name}\":");
    let at = line.find(&key).unwrap_or_else(|| panic!("no {name} in {line}")) + key.len();
    line[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("bad {name} in {line}"))
}

fn spawn_daemon(args: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_daas-serve"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn daas-serve")
}

#[test]
#[ignore] // release-lane gate: scale-0.05 world, two daemon boots
fn killed_daemon_restores_and_matches_batch_under_query_load() {
    let dir = std::env::temp_dir().join(format!("daas_serve_gate_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let sock1 = dir.join("serve1.sock");
    let sock2 = dir.join("serve2.sock");
    let ckpt = dir.join("engine.ckpt.json");

    // Boot #1: ingest half the chain, checkpoint, die without warning.
    let mut first = spawn_daemon(&[
        "--preset", "paper", "--seed", SEED, "--scale", SCALE, "--window", WINDOW,
        "--socket", sock1.to_str().unwrap(),
    ]);
    let mut ctl = Conn::open(&sock1);
    let status = ctl.send("{\"cmd\":\"status\"}");
    let total_blocks = field_u64(&status, "total_blocks");
    assert!(total_blocks > 0);
    let mut ingested = 0u64;
    while ingested * 2 < total_blocks {
        let reply = ctl.send("{\"cmd\":\"ingest\"}");
        assert!(!reply.contains("\"done\":true"), "chain exhausted before half: {reply}");
        ingested = field_u64(&ctl.send("{\"cmd\":\"status\"}"), "blocks_ingested");
    }
    let reply = ctl.send(&format!(
        "{{\"cmd\":\"checkpoint\",\"path\":\"{}\"}}",
        ckpt.display()
    ));
    // A checkpoint is a cursor, a chain fingerprint and the configs.
    let bytes = field_u64(&reply, "bytes");
    assert!(bytes > 0 && bytes <= 4096, "checkpoint of {bytes} bytes");
    let ckpt_watermark = field_u64(&reply, "watermark");
    first.kill().expect("kill");
    first.wait().expect("wait");

    // Boot #2: restore, finish the stream under concurrent query load.
    let mut second = spawn_daemon(&[
        "--restore", ckpt.to_str().unwrap(), "--window", WINDOW,
        "--socket", sock2.to_str().unwrap(),
    ]);
    let mut ctl = Conn::open(&sock2);
    let status = ctl.send("{\"cmd\":\"status\"}");
    assert_eq!(field_u64(&status, "watermark"), ckpt_watermark, "restore lost the cursor");
    assert!(!status.contains("\"done\":true"), "restore should resume mid-stream");

    let stop = Arc::new(AtomicBool::new(false));
    let mut query_threads = Vec::new();
    for t in 0..4u8 {
        let sock2 = sock2.clone();
        let stop = Arc::clone(&stop);
        query_threads.push(thread::spawn(move || {
            let mut conn = Conn::open(&sock2);
            let mut epochs = std::collections::BTreeSet::new();
            let mut queries = 0usize;
            // Keep querying throughout ingestion; at least 250 each so
            // the four threads clear 1000 together.
            while !stop.load(Ordering::Relaxed) || queries < 250 {
                let addr = eth_types::Address::from_key_seed(&[t, (queries % 251) as u8]);
                let line =
                    conn.send(&format!("{{\"cmd\":\"risk\",\"address\":\"{addr}\"}}"));
                epochs.insert(field_u64(&line, "epoch"));
                queries += 1;
            }
            (epochs, queries)
        }));
    }

    let reply = ctl.send(&format!("{{\"cmd\":\"run\",\"window\":{WINDOW}}}"));
    assert!(reply.contains("\"done\":true"), "{reply}");
    stop.store(true, Ordering::Relaxed);
    let mut total_queries = 0usize;
    let mut all_epochs = std::collections::BTreeSet::new();
    for thread in query_threads {
        let (epochs, queries) = thread.join().expect("query thread");
        total_queries += queries;
        all_epochs.extend(epochs);
    }
    assert!(total_queries >= 1000, "only {total_queries} concurrent queries ran");
    assert!(
        all_epochs.len() >= 2,
        "queries saw a single epoch {all_epochs:?} — ingestion never advanced under load"
    );

    let artifact = ctl.send("{\"cmd\":\"artifact\"}");
    ctl.send("{\"cmd\":\"shutdown\"}");
    let code = second.wait().expect("wait");
    assert!(code.success(), "daemon exited with {code:?}");

    // The one-shot batch pipeline over the same (deterministically
    // regenerated) world is the ground truth the daemon must match
    // byte-for-byte.
    let mut config = WorldConfig::paper_scale(42);
    config.scale = 0.05;
    let world = World::build(&config).expect("world");
    let snowball = SnowballConfig::default();
    let cache = ClassificationCache::new();
    let dataset = build_dataset_with_cache(&world.chain, &world.labels, &snowball, &cache);
    let clustering = cluster(&world.chain, &world.labels, &dataset);
    let reports = MeasureCtx::new(&world.chain, &dataset, &world.oracle).reports(
        &world.labels,
        30 * 86_400,
        collection_end(),
        &MeasureConfig::sequential(),
    );
    let expected = format!(
        "\"artifact\":{{\"contracts\":{},\"operators\":{},\"affiliates\":{},\"ps_txs\":{},\
         \"clustering\":{},\"reports\":{}}}",
        serde_json::to_string(&dataset.contracts).unwrap(),
        serde_json::to_string(&dataset.operators).unwrap(),
        serde_json::to_string(&dataset.affiliates).unwrap(),
        serde_json::to_string(&dataset.ps_txs).unwrap(),
        serde_json::to_string(&clustering).unwrap(),
        serde_json::to_string(&reports).unwrap(),
    );
    assert!(
        artifact.contains(&expected),
        "daemon artifact diverged from the batch pipeline (lengths: daemon {} vs batch {})",
        artifact.len(),
        expected.len()
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Cheap non-ignored smoke: the binary boots on a micro world over
/// stdin/stdout, answers status, and shuts down cleanly.
#[test]
fn daemon_smoke_over_stdio() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_daas-serve"))
        .args(["--preset", "micro", "--seed", "42"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn daas-serve");
    let mut stdin = child.stdin.take().expect("stdin");
    let stdout = child.stdout.take().expect("stdout");
    writeln!(stdin, "{{\"cmd\":\"status\"}}").expect("send");
    writeln!(stdin, "{{\"cmd\":\"run\",\"window\":200}}").expect("send");
    writeln!(stdin, "{{\"cmd\":\"status\"}}").expect("send");
    writeln!(stdin, "{{\"cmd\":\"shutdown\"}}").expect("send");
    drop(stdin);
    let mut lines = BufReader::new(stdout).lines();
    let first = lines.next().expect("status").expect("read");
    assert!(first.contains("\"epoch\":0"), "{first}");
    let run = lines.next().expect("run").expect("read");
    assert!(run.contains("\"done\":true"), "{run}");
    let last = lines.next().expect("status").expect("read");
    assert!(last.contains("\"done\":true"), "{last}");
    let bye = lines.next().expect("shutdown").expect("read");
    assert!(bye.contains("\"shutdown\":true"), "{bye}");
    let code = child.wait().expect("wait");
    assert!(code.success(), "daemon exited with {code:?}");
}
