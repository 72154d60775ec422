//! The daemon's JSONL wire protocol — one request object per line, one
//! response object per line, identical over stdin/stdout and the Unix
//! socket.
//!
//! Requests name a command plus optional operands:
//!
//! ```json
//! {"cmd":"status"}
//! {"cmd":"risk","address":"0x5a3f…"}
//! {"cmd":"family","id":3}            // or {"cmd":"family","address":…}
//! {"cmd":"victim","address":"0x…"}
//! {"cmd":"stats"}
//! {"cmd":"obs"}
//! {"cmd":"events","since":0,"limit":100}
//! {"cmd":"ingest","blocks":64}
//! {"cmd":"run","window":64}
//! {"cmd":"reports"}
//! {"cmd":"artifact"}
//! {"cmd":"checkpoint","path":"/tmp/ckpt.json"}
//! {"cmd":"shutdown"}
//! ```
//!
//! Responses carry `"ok":true` plus the payload, or
//! `{"ok":false,"error":…}`. Query commands (`status`, `risk`,
//! `family`, `victim`, `stats`) are answered by any connection thread
//! from the published snapshot — [`answer_query`] — and never touch the
//! engine; everything else is a control command the server forwards to
//! the single engine thread. The live-telemetry queries (`obs`,
//! `events`) are answered by the server from the telemetry state and
//! the non-destructive metrics snapshot — also without touching the
//! engine, and without recording anything (DESIGN.md §15's drain-purity
//! rule).

use std::io::{self, BufRead, Read};
use std::str::FromStr;
use std::time::Instant;

use daas_cluster::Family;
use daas_measure::StatBundle;
use daas_obs::json::escape_into;
use eth_types::Address;
use serde::{Deserialize, Serialize};

use crate::snapshot::Snapshot;

/// One parsed request line. Unused operands are simply `None`.
#[derive(Debug, Clone, Deserialize)]
pub struct Request {
    /// The command verb.
    pub cmd: String,
    /// Address operand (`risk`, `family`, `victim`), `0x…` hex.
    #[serde(default)]
    pub address: Option<String>,
    /// Family id operand (`family`).
    #[serde(default)]
    pub id: Option<usize>,
    /// Window size in blocks (`ingest`).
    #[serde(default)]
    pub blocks: Option<u64>,
    /// Window size in blocks (`run`).
    #[serde(default)]
    pub window: Option<u64>,
    /// Filesystem path operand (`checkpoint`).
    #[serde(default)]
    pub path: Option<String>,
    /// Journal sequence cursor (`events`): only events with a larger
    /// `seq` are returned.
    #[serde(default)]
    pub since: Option<u64>,
    /// Maximum events returned (`events`).
    #[serde(default)]
    pub limit: Option<usize>,
}

impl Request {
    /// Parses one JSONL request line.
    pub fn parse(line: &str) -> Result<Request, String> {
        serde_json::from_str(line).map_err(|e| format!("bad request: {e}"))
    }

    /// `true` when this command reads the snapshot only (answerable by
    /// any connection thread without involving the engine).
    pub fn is_query(&self) -> bool {
        matches!(self.cmd.as_str(), "status" | "risk" | "family" | "victim" | "stats")
    }
}

/// The uniform failure response.
pub fn error_response(message: &str) -> String {
    let mut line = String::from("{\"ok\":false,\"error\":");
    escape_into(&mut line, message);
    line.push('}');
    line
}

/// The longest request line any listener reads, in bytes, line ending
/// excluded. The longest valid request is a `checkpoint` naming a
/// filesystem path, far below this.
pub const MAX_REQUEST_LINE: usize = 64 * 1024;

/// One line read by [`read_request_line`].
#[derive(Debug, PartialEq, Eq)]
pub enum RequestLine {
    /// A line without its `\n` / `\r\n` ending (the last line may
    /// lack one).
    Line(String),
    /// More than [`MAX_REQUEST_LINE`] bytes arrived before the line
    /// ending; whatever follows them is left unread.
    TooLong,
    /// End of input.
    Eof,
}

/// Reads one line, buffering at most [`MAX_REQUEST_LINE`] + 2 bytes
/// (room for a `\r\n` ending), so a client that never sends a newline
/// cannot grow memory without bound. Invalid UTF-8 is an `InvalidData` error, as with
/// [`BufRead::lines`]. Every listener of the daemon (stdin, the Unix
/// socket, the scrape port) reads through this.
pub fn read_request_line(reader: &mut impl BufRead) -> io::Result<RequestLine> {
    let mut buf = Vec::new();
    if reader.take(MAX_REQUEST_LINE as u64 + 2).read_until(b'\n', &mut buf)? == 0 {
        return Ok(RequestLine::Eof);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    }
    if buf.len() > MAX_REQUEST_LINE {
        return Ok(RequestLine::TooLong);
    }
    String::from_utf8(buf)
        .map(RequestLine::Line)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[derive(Serialize)]
struct StatusResponse {
    ok: bool,
    epoch: u64,
    watermark: u64,
    blocks_ingested: u64,
    total_blocks: u64,
    done: bool,
    contracts: usize,
    operators: usize,
    affiliates: usize,
    ps_txs: usize,
    families: usize,
    incidents: usize,
    total_usd: f64,
}

#[derive(Serialize)]
struct RiskResponse {
    ok: bool,
    epoch: u64,
    address: Address,
    is_daas: bool,
    roles: Vec<&'static str>,
    family: Option<usize>,
    family_name: Option<String>,
}

#[derive(Serialize)]
struct VictimResponse {
    ok: bool,
    epoch: u64,
    address: Address,
    is_victim: bool,
    incidents: usize,
    usd: f64,
}

/// What a query found in the snapshot, before it is written as a reply
/// line.
enum Answer<'s> {
    Status(StatusResponse),
    Risk(RiskResponse),
    Victim(VictimResponse),
    /// The family a `family` query resolved to (`None`: the address is
    /// in no family).
    Family(Option<&'s Family>),
    Stats(&'s StatBundle),
    Error(String),
}

impl Answer<'_> {
    /// The reply line, `epoch` being the snapshot's.
    fn write(&self, epoch: u64) -> String {
        match self {
            Answer::Status(reply) => to_line(reply),
            Answer::Risk(reply) => to_line(reply),
            Answer::Victim(reply) => to_line(reply),
            Answer::Family(Some(family)) => {
                format!("{{\"ok\":true,\"epoch\":{epoch},\"family\":{}}}", to_line(family))
            }
            Answer::Family(None) => format!("{{\"ok\":true,\"epoch\":{epoch},\"family\":null}}"),
            Answer::Stats(stats) => {
                format!("{{\"ok\":true,\"epoch\":{epoch},\"stats\":{}}}", to_line(stats))
            }
            Answer::Error(message) => error_response(message),
        }
    }
}

fn parse_address(field: &Option<String>) -> Result<Address, String> {
    let raw = field.as_deref().ok_or("missing \"address\"")?;
    Address::from_str(raw).map_err(|_| format!("bad address {raw:?}"))
}

fn to_line<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).unwrap_or_else(|e| error_response(&e.to_string()))
}

/// The clock of one query's stage split,
/// `serve.query_stage_ms{stage=parse|answer|write}`: read only while the
/// recorder is on, so a query with it off reads no clock at all.
pub(crate) struct QueryClock(Option<Instant>);

impl QueryClock {
    /// Starts timing the first stage.
    pub(crate) fn start() -> Self {
        QueryClock(daas_obs::enabled().then(Instant::now))
    }

    /// Records the time since the start or the last lap as `stage`, and
    /// returns it in ms.
    pub(crate) fn lap(&mut self, stage: &str) -> f64 {
        let Some(last) = &mut self.0 else { return 0.0 };
        let now = Instant::now();
        let ms = (now - *last).as_secs_f64() * 1e3;
        daas_obs::observe_ms_l("serve.query_stage_ms", "stage", stage, ms);
        *last = now;
        ms
    }
}

/// Answers a query command from a published snapshot; `None` when the
/// command is a control command for the engine thread. Latency lands in
/// the `serve.query_ms{endpoint=…}` histogram, split into the snapshot
/// lookup and the reply's serialization as
/// `serve.query_stage_ms{stage=answer|write}`.
pub fn answer_query(snap: &Snapshot, req: &Request) -> Option<String> {
    if !req.is_query() {
        return None;
    }
    let mut clock = QueryClock::start();
    let answer = lookup(snap, req);
    let answer_ms = clock.lap("answer");
    let line = answer.write(snap.epoch);
    let write_ms = clock.lap("write");
    if daas_obs::enabled() {
        daas_obs::observe_ms_l("serve.query_ms", "endpoint", &req.cmd, answer_ms + write_ms);
    }
    Some(line)
}

/// The snapshot lookup of a query command.
fn lookup<'s>(snap: &'s Snapshot, req: &Request) -> Answer<'s> {
    match req.cmd.as_str() {
        "status" => Answer::Status(StatusResponse {
            ok: true,
            epoch: snap.epoch,
            watermark: snap.watermark as u64,
            blocks_ingested: snap.blocks_ingested,
            total_blocks: snap.total_blocks,
            done: snap.done,
            contracts: snap.counts.contracts,
            operators: snap.counts.operators,
            affiliates: snap.counts.affiliates,
            ps_txs: snap.counts.ps_txs,
            families: snap.families.len(),
            incidents: snap.incidents.len(),
            total_usd: snap.total_usd,
        }),
        "risk" => match parse_address(&req.address) {
            Ok(address) => {
                let risk = snap.risk(address);
                Answer::Risk(RiskResponse {
                    ok: true,
                    epoch: snap.epoch,
                    address,
                    is_daas: risk.is_daas,
                    roles: risk.role_names(),
                    family: risk.family,
                    family_name: risk.family_name,
                })
            }
            Err(e) => Answer::Error(e),
        },
        "family" => {
            let id = match (req.id, &req.address) {
                (Some(id), _) => Ok(Some(id)),
                (None, Some(_)) => parse_address(&req.address).map(|a| snap.family_of(a)),
                (None, None) => Err("family needs \"id\" or \"address\"".to_string()),
            };
            match id {
                Ok(Some(id)) => match snap.family(id) {
                    Some(family) => Answer::Family(Some(family)),
                    None => Answer::Error(format!("no family {id}")),
                },
                Ok(None) => Answer::Family(None),
                Err(e) => Answer::Error(e),
            }
        }
        "victim" => match parse_address(&req.address) {
            Ok(address) => {
                let (usd, incidents) =
                    snap.victim_losses().get(&address).copied().unwrap_or((0.0, 0));
                Answer::Victim(VictimResponse {
                    ok: true,
                    epoch: snap.epoch,
                    address,
                    is_victim: incidents > 0,
                    incidents,
                    usd,
                })
            }
            Err(e) => Answer::Error(e),
        },
        "stats" => Answer::Stats(snap.stat_bundle()),
        _ => unreachable!("is_query gates the command set"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::Arc;

    use daas_detector::DatasetCounts;
    use txgraph::CowMap;

    #[test]
    fn request_lines_are_capped() {
        let line = |len: usize, end: &str| format!("{}{end}", "x".repeat(len)).into_bytes();
        let read = |bytes: Vec<u8>| read_request_line(&mut io::Cursor::new(bytes)).unwrap();
        let max = MAX_REQUEST_LINE;
        assert_eq!(read(line(max, "\n")), RequestLine::Line("x".repeat(max)));
        assert_eq!(read(line(max, "\r\n")), RequestLine::Line("x".repeat(max)));
        assert_eq!(read(line(max, "")), RequestLine::Line("x".repeat(max)));
        assert_eq!(read(line(max + 1, "\n")), RequestLine::TooLong);
        assert_eq!(read(line(max + 1, "")), RequestLine::TooLong);
        assert_eq!(read(Vec::new()), RequestLine::Eof);

        // Consecutive lines, and a multi-byte character cut by the cap
        // still reads as too long rather than as bad UTF-8.
        let mut two = io::Cursor::new(b"{\"cmd\":\"status\"}\n\nrest".to_vec());
        let status = RequestLine::Line("{\"cmd\":\"status\"}".into());
        assert_eq!(read_request_line(&mut two).unwrap(), status);
        assert_eq!(read_request_line(&mut two).unwrap(), RequestLine::Line(String::new()));
        assert_eq!(read_request_line(&mut two).unwrap(), RequestLine::Line("rest".into()));
        assert_eq!(read(format!("x{}", "é".repeat(max)).into_bytes()), RequestLine::TooLong);
        assert!(read_request_line(&mut io::Cursor::new(vec![0xff, b'\n'])).is_err());
    }

    #[test]
    fn parses_requests_with_optional_operands() {
        let req = Request::parse("{\"cmd\":\"status\"}").unwrap();
        assert_eq!(req.cmd, "status");
        assert!(req.is_query());
        let req =
            Request::parse("{\"cmd\":\"ingest\",\"blocks\":64}").unwrap();
        assert_eq!(req.blocks, Some(64));
        assert!(!req.is_query());
        assert!(Request::parse("not json").is_err());
    }

    /// Epoch 3 of a world with one family, `Angel "Drainer"`, whose
    /// contract is also an affiliate.
    fn one_family_snapshot(flagged: Address) -> Snapshot {
        let family = Family {
            id: 0,
            name: "Angel \"Drainer\"".into(),
            operators: Vec::new(),
            contracts: vec![flagged],
            affiliates: vec![flagged],
            ps_txs: vec![5],
        };
        let set = Arc::new(BTreeSet::from([flagged]));
        Snapshot::new(
            3,
            10,
            2,
            4,
            false,
            DatasetCounts { contracts: 1, operators: 0, affiliates: 1, ps_txs: 1 },
            Arc::new(vec![Arc::new(family)]),
            Arc::clone(&set),
            Arc::new(BTreeSet::new()),
            set,
            CowMap::new(),
            0.0,
        )
    }

    #[test]
    fn risk_replies_keep_their_bytes() {
        let flagged = Address::from_hex("0x7a0d6f390166b3eb4fa3f65bdc2c0bebbe37c9cb").unwrap();
        let snap = one_family_snapshot(flagged);
        let ask = |line: &str| answer_query(&snap, &Request::parse(line).unwrap()).unwrap();
        assert_eq!(
            ask("{\"cmd\":\"risk\",\"address\":\"0x7a0d6f390166b3eb4fa3f65bdc2c0bebbe37c9cb\"}"),
            "{\"ok\":true,\"epoch\":3,\"address\":\"0x7a0d6f390166b3eb4fa3f65bdc2c0bebbe37c9cb\",\
             \"is_daas\":true,\"roles\":[\"contract\",\"affiliate\"],\"family\":0,\
             \"family_name\":\"Angel \\\"Drainer\\\"\"}"
        );
        // Upper-case hex in, the lower-case form out.
        assert_eq!(
            ask("{\"cmd\":\"risk\",\"address\":\"0x00000000000000000000000000000000000000AB\"}"),
            "{\"ok\":true,\"epoch\":3,\"address\":\"0x00000000000000000000000000000000000000ab\",\
             \"is_daas\":false,\"roles\":[],\"family\":null,\"family_name\":null}"
        );
        assert_eq!(
            ask("{\"cmd\":\"risk\",\"address\":\"0x12\"}"),
            "{\"ok\":false,\"error\":\"bad address \\\"0x12\\\"\"}"
        );
        assert_eq!(
            ask("{\"cmd\":\"risk\"}"),
            "{\"ok\":false,\"error\":\"missing \\\"address\\\"\"}"
        );
        assert_eq!(
            Request::parse("{\"cmd\":\"risk\",\"address\":\"0x12").unwrap_err(),
            "bad request: unterminated string at byte 29"
        );
        assert_eq!(
            ask("{\"cmd\":\"family\",\"address\":\"0x7a0d6f390166b3eb4fa3f65bdc2c0bebbe37c9cb\"}"),
            "{\"ok\":true,\"epoch\":3,\"family\":{\"id\":0,\"name\":\"Angel \\\"Drainer\\\"\",\
             \"operators\":[],\"contracts\":[\"0x7a0d6f390166b3eb4fa3f65bdc2c0bebbe37c9cb\"],\
             \"affiliates\":[\"0x7a0d6f390166b3eb4fa3f65bdc2c0bebbe37c9cb\"],\"ps_txs\":[5]}}"
        );
        assert_eq!(
            ask("{\"cmd\":\"family\",\"id\":1}"),
            "{\"ok\":false,\"error\":\"no family 1\"}"
        );
        assert_eq!(
            ask("{\"cmd\":\"victim\",\"address\":\"0x7a0d6f390166b3eb4fa3f65bdc2c0bebbe37c9cb\"}"),
            "{\"ok\":true,\"epoch\":3,\"address\":\"0x7a0d6f390166b3eb4fa3f65bdc2c0bebbe37c9cb\",\
             \"is_victim\":false,\"incidents\":0,\"usd\":0.0}"
        );
    }

    #[test]
    fn empty_snapshot_answers_status_and_risk() {
        let snap = Snapshot::empty(0);
        let line = answer_query(&snap, &Request::parse("{\"cmd\":\"status\"}").unwrap()).unwrap();
        assert!(line.contains("\"ok\":true"), "{line}");
        assert!(line.contains("\"done\":true"), "{line}");
        let addr = Address::from_key_seed(&[7]);
        let line = answer_query(
            &snap,
            &Request::parse(&format!("{{\"cmd\":\"risk\",\"address\":\"{addr}\"}}")).unwrap(),
        )
        .unwrap();
        assert!(line.contains("\"is_daas\":false"), "{line}");
        // Control commands are not answered here.
        assert!(answer_query(&snap, &Request::parse("{\"cmd\":\"reports\"}").unwrap()).is_none());
    }
}
